#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "tgcover/graph/graph.hpp"
#include "tgcover/util/stamped.hpp"

namespace tgc::graph {

inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// BFS hop distances from `src`, truncated at `max_depth` (kUnreached beyond).
std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId src,
                                         std::uint32_t max_depth = kUnreached);

/// Connected-component labels (0-based); `count` receives the number of
/// components. Isolated vertices form their own components. Generic over
/// Graph-like types (Graph, BallView — the span kernel's ball views).
template <typename G>
std::vector<std::uint32_t> connected_components(const G& g,
                                                std::size_t* count = nullptr) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> label(n, kUnreached);
  std::uint32_t next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (label[s] != kUnreached) continue;
    label[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (const VertexId w : g.neighbors(u)) {
        if (label[w] == kUnreached) {
          label[w] = next;
          stack.push_back(w);
        }
      }
    }
    ++next;
  }
  if (count != nullptr) *count = next;
  return label;
}

bool is_connected(const Graph& g);

/// Dimension of the GF(2) cycle space: |E| - |V| + #components.
template <typename G>
std::size_t cycle_space_dimension(const G& g) {
  std::size_t components = 0;
  connected_components(g, &components);
  return g.num_edges() + components - g.num_vertices();
}

/// Mask of the vertices in the largest connected component (ties broken
/// toward the smallest component label). Useful for trace-derived graphs,
/// which can come out disconnected.
std::vector<bool> largest_component_mask(const Graph& g);

/// Vertices within `k` hops of `v`, excluding `v` itself — the paper's
/// N^k_H(v). Sorted by vertex id.
std::vector<VertexId> k_hop_neighbors(const Graph& g, VertexId v, unsigned k);

/// Multi-source BFS truncated at a depth bound: the one answer to "which
/// vertices lie within k hops of this set?" — a deletion wave's dirty
/// frontier, a repair's wake set, a link's ball. Scratch is epoch-stamped
/// and kept, so a caller running one search per round allocates only on
/// growth. Counts nothing itself; callers charge `expansions()` where the
/// cost model wants it.
class BoundedBfs {
 public:
  /// Searches from `sources` (depth 0; duplicates ignored) out to `depth`
  /// hops. A neighbour `w` reached over edge `e` joins iff `relay(w, e)`;
  /// sources join unconditionally.
  template <typename Relay>
  void run(const Graph& g, std::span<const VertexId> sources,
           std::uint32_t depth, Relay&& relay) {
    depth_.resize(g.num_vertices());
    depth_.clear();
    order_.clear();
    cut_off_ = false;
    for (const VertexId s : sources) {
      if (depth_.contains(s)) continue;
      depth_.put(s, 0);
      order_.push_back(s);
    }
    num_sources_ = order_.size();
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const VertexId u = order_[head];
      const std::uint32_t du = depth_.get(u);
      if (du == depth && cut_off_) continue;
      const auto nbrs = g.neighbors(u);
      const auto eids = g.incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (depth_.contains(w) || !relay(w, eids[i])) continue;
        if (du == depth) {  // w lies one hop past the bound
          cut_off_ = true;
          break;
        }
        depth_.put(w, du + 1);
        order_.push_back(w);
      }
    }
  }

  /// The vertices the last run reached: sources first, then BFS order.
  std::span<const VertexId> reached() const { return order_; }
  /// Vertices discovered beyond the sources.
  std::size_t expansions() const { return order_.size() - num_sources_; }
  /// True iff the depth bound stopped the search: some vertex at the bound
  /// has a neighbour the relay admits that was not reached.
  bool cut_off() const { return cut_off_; }
  /// Hops from `v` to the nearest source (kUnreached if not reached).
  std::uint32_t depth(VertexId v) const {
    return depth_.contains(v) ? depth_.get(v) : kUnreached;
  }

 private:
  util::StampedArray<std::uint32_t> depth_;
  std::vector<VertexId> order_;
  std::size_t num_sources_ = 0;
  bool cut_off_ = false;
};

/// Shortest-path tree with deterministic lexicographic tie-breaking: among
/// equal-depth parents the smallest vertex id wins. Horton's MCB algorithm
/// needs consistent shortest paths; lexicographic ties keep the candidate
/// set MCB-containing (Algorithm 1 of the paper, lines 2-6). The build
/// expands each BFS layer in ascending id, so it sorts every layer it
/// expands and leaves the last one (which it never expands) unsorted: a
/// tree truncated at depth D gives every vertex at depth ≤ D the parent,
/// parent edge and depth the untruncated tree gives it.
class ShortestPathTree {
 public:
  /// An empty tree; `rebuild` fills it.
  ShortestPathTree() = default;

  /// Builds the SPT of `g` rooted at `root`, truncated at `max_depth`.
  /// Generic over Graph-like types (Graph, BallView) — the streaming span
  /// kernel builds one per root over arena-backed ball views.
  ///
  /// `stop_at` stops the build once that vertex's layer completes: every
  /// vertex at depth ≤ depth(stop_at) — the whole root→stop_at path in
  /// particular — gets exactly the parent the untruncated build assigns
  /// (layers finish before the check, so tie-breaking never changes).
  /// Callers that only extract one path (boundary ring stitching) skip the
  /// rest of the graph.
  template <typename G>
  ShortestPathTree(const G& g, VertexId root,
                   std::uint32_t max_depth = kUnreached,
                   VertexId stop_at = kInvalidVertex) {
    rebuild(g, root, max_depth, stop_at);
  }

  /// Re-roots the tree in place, reusing the parent, depth and layer
  /// arrays: only the vertices the previous build reached are reset, so a
  /// caller building one tree per root of a ball stops allocating once the
  /// arrays cover the largest ball.
  template <typename G>
  void rebuild(const G& g, VertexId root,
               std::uint32_t max_depth = kUnreached,
               VertexId stop_at = kInvalidVertex) {
    for (const VertexId v : order_) {
      parent_[v] = kInvalidVertex;
      parent_edge_[v] = kInvalidEdge;
      depth_[v] = kUnreached;
    }
    order_.clear();
    const std::size_t n = g.num_vertices();
    parent_.resize(n, kInvalidVertex);
    parent_edge_.resize(n, kInvalidEdge);
    depth_.resize(n, kUnreached);
    root_ = root;

    depth_[root] = 0;
    order_.push_back(root);
    // Layered BFS processing vertices in increasing id within each layer;
    // combined with sorted adjacency this assigns every vertex the
    // smallest-id eligible parent (lexicographic tie-breaking). The layers
    // sit back to back in order_; a complete layer is sorted only when it is
    // expanded next, so the last one (at max_depth or holding stop_at) stays
    // in discovery order, which changes no parent.
    std::uint32_t d = 0;
    const auto expands = [&] {
      return d < max_depth &&
             (stop_at == kInvalidVertex || depth_[stop_at] == kUnreached);
    };
    std::size_t begin = 0;
    while (begin < order_.size() && expands()) {
      const std::size_t end = order_.size();
      for (std::size_t i = begin; i < end; ++i) {
        const VertexId u = order_[i];
        const auto nbrs = g.neighbors(u);
        const auto eids = g.incident_edges(u);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId w = nbrs[j];
          if (depth_[w] == kUnreached) {
            depth_[w] = d + 1;
            parent_[w] = u;
            parent_edge_[w] = eids[j];
            order_.push_back(w);
          }
        }
      }
      begin = end;
      ++d;
      if (expands()) {
        std::sort(order_.begin() + static_cast<std::ptrdiff_t>(end),
                  order_.end());
      }
    }
  }

  VertexId root() const { return root_; }

  bool reached(VertexId v) const { return depth_[v] != kUnreached; }
  std::uint32_t depth(VertexId v) const { return depth_[v]; }

  /// Parent of `v` in the tree (kInvalidVertex for the root / unreached).
  VertexId parent(VertexId v) const { return parent_[v]; }

  /// The tree edge (v, parent(v)); kInvalidEdge for root / unreached.
  EdgeId parent_edge(VertexId v) const { return parent_edge_[v]; }

  /// Lowest common ancestor of two reached vertices.
  VertexId lca(VertexId x, VertexId y) const;

  /// Vertices on the tree path root -> v inclusive, root first.
  std::vector<VertexId> path_from_root(VertexId v) const;

 private:
  VertexId root_ = kInvalidVertex;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint32_t> depth_;
  std::vector<VertexId> order_;  // reached vertices, layer by layer
};

}  // namespace tgc::graph
