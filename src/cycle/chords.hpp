#pragma once

// Chord enumeration shared by the candidate generator (candidates.cpp) and
// the streaming span kernel (span.cpp).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"

namespace tgc::cycle {

/// Walks up the tree `spt` from both ends of a chord (x, y) to their lowest
/// common ancestor, writing the tree edges it passes into `ids`: first the
/// deeper end up to the other's depth, then both ends in lockstep. Returns
/// the ancestor, or kInvalidVertex as soon as those edges plus the chord
/// would exceed `max_len`.
inline graph::VertexId tree_path_ids(const graph::ShortestPathTree& spt,
                                     graph::VertexId x, graph::VertexId y,
                                     std::uint32_t max_len,
                                     std::vector<graph::EdgeId>& ids) {
  ids.clear();
  std::uint32_t dx = spt.depth(x);
  std::uint32_t dy = spt.depth(y);
  if (dx < dy) {
    std::swap(x, y);
    std::swap(dx, dy);
  }
  if (dx - dy >= max_len) return graph::kInvalidVertex;
  for (; dx > dy; --dx) {
    ids.push_back(spt.parent_edge(x));
    x = spt.parent(x);
  }
  while (x != y) {
    if (ids.size() + 2 >= max_len) return graph::kInvalidVertex;
    ids.push_back(spt.parent_edge(x));
    ids.push_back(spt.parent_edge(y));
    x = spt.parent(x);
    y = spt.parent(y);
  }
  return x;
}

/// Sorts the short id list `ids` ascending in place (insertion sort: a
/// chord's cycle has at most τ edges).
inline void sort_short(std::vector<graph::EdgeId>& ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const graph::EdgeId e = ids[i];
    std::size_t j = i;
    for (; j > 0 && ids[j - 1] > e; --j) ids[j] = ids[j - 1];
    ids[j] = e;
  }
}

/// Index into `g.neighbors(x)` of x's first neighbour above x: recorded by
/// a BallView's build, found by binary search in a Graph's sorted row.
template <typename G>
std::size_t first_above(const G& g, graph::VertexId x) {
  if constexpr (requires { g.first_above(x); }) {
    return g.first_above(x);
  } else {
    const auto nbrs = g.neighbors(x);
    return static_cast<std::size_t>(
        std::upper_bound(nbrs.begin(), nbrs.end(), x) - nbrs.begin());
  }
}

/// Calls `fn(lca)` for every chord of the tree `spt` over `g` — a non-tree
/// edge (x, y), x < y, with both ends reached — whose fundamental cycle has
/// at most `max_len` edges, in increasing x, then in x's adjacency order.
/// During the call `ids` holds the cycle's edge ids sorted ascending (the
/// CycleDedup key; its size is the cycle length): the tree paths x→lca and
/// y→lca plus the chord. Stops and returns false as soon as `fn` returns
/// false. Generic over Graph-like types (Graph, BallView), whose rows are
/// sorted; each row's scan starts at its first neighbour above x.
template <typename G, typename Fn>
bool for_each_chord(const G& g, const graph::ShortestPathTree& spt,
                    std::uint32_t max_len, std::vector<graph::EdgeId>& ids,
                    Fn&& fn) {
  for (graph::VertexId x = 0; x < g.num_vertices(); ++x) {
    if (!spt.reached(x)) continue;
    const auto nbrs = g.neighbors(x);
    const auto eids = g.incident_edges(x);
    // Each chord once per tree, from its smaller end.
    for (std::size_t i = first_above(g, x); i < nbrs.size(); ++i) {
      const graph::VertexId y = nbrs[i];
      const graph::EdgeId e = eids[i];
      if (!spt.reached(y) || spt.parent_edge(x) == e ||
          spt.parent_edge(y) == e) {
        continue;
      }
      const graph::VertexId lca = tree_path_ids(spt, x, y, max_len, ids);
      if (lca == graph::kInvalidVertex) continue;
      ids.push_back(e);
      sort_short(ids);
      if (!fn(lca)) return false;
    }
  }
  return true;
}

}  // namespace tgc::cycle
