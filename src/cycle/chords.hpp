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
/// common ancestor, writing the tree edges it passes into `ids`. Returns
/// the ancestor, or kInvalidVertex as soon as those edges plus the chord
/// would exceed `max_len`.
inline graph::VertexId tree_path_ids(const graph::ShortestPathTree& spt,
                                     graph::VertexId x, graph::VertexId y,
                                     std::uint32_t max_len,
                                     std::vector<graph::EdgeId>& ids) {
  ids.clear();
  while (x != y) {
    if (spt.depth(x) < spt.depth(y)) std::swap(x, y);
    ids.push_back(spt.parent_edge(x));
    x = spt.parent(x);
    if (ids.size() >= max_len) return graph::kInvalidVertex;
  }
  return x;
}

/// Calls `fn(lca)` for every chord of the tree `spt` over `g` — a non-tree
/// edge (x, y), x < y, with both ends reached — whose fundamental cycle has
/// at most `max_len` edges, in increasing x, then in x's adjacency order.
/// During the call `ids` holds the cycle's edge ids sorted ascending (the
/// CycleDedup key; its size is the cycle length): the tree paths x→lca and
/// y→lca plus the chord. Stops and returns false as soon as `fn` returns
/// false. Generic over Graph-like types (Graph, BallView), whose rows are
/// sorted.
template <typename G, typename Fn>
bool for_each_chord(const G& g, const graph::ShortestPathTree& spt,
                    std::uint32_t max_len, std::vector<graph::EdgeId>& ids,
                    Fn&& fn) {
  for (graph::VertexId x = 0; x < g.num_vertices(); ++x) {
    if (!spt.reached(x)) continue;
    const auto nbrs = g.neighbors(x);
    const auto eids = g.incident_edges(x);
    // Each chord once per tree, from its smaller end.
    const auto first = std::upper_bound(nbrs.begin(), nbrs.end(), x);
    for (auto i = static_cast<std::size_t>(first - nbrs.begin());
         i < nbrs.size(); ++i) {
      const graph::VertexId y = nbrs[i];
      const graph::EdgeId e = eids[i];
      if (!spt.reached(y) || spt.parent_edge(x) == e ||
          spt.parent_edge(y) == e) {
        continue;
      }
      const graph::VertexId lca = tree_path_ids(spt, x, y, max_len, ids);
      if (lca == graph::kInvalidVertex) continue;
      ids.push_back(e);
      std::sort(ids.begin(), ids.end());
      if (!fn(lca)) return false;
    }
  }
  return true;
}

}  // namespace tgc::cycle
