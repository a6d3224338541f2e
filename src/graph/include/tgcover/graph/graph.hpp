#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tgc::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// Immutable simple undirected graph in CSR form.
///
/// This is the network connectivity graph `G` of the paper: vertices are
/// nodes, edges are communication links. No geometry is stored here — all
/// coverage reasoning in `cycle`/`core` is purely combinatorial, matching the
/// paper's location-free setting. Edge ids are stable and index the GF(2)
/// incidence vectors of the cycle space.
///
/// Adjacency lists are sorted by neighbor id; several algorithms (lexicographic
/// shortest-path trees, triangle enumeration) and `edge_between` rely on
/// that. The four CSR arrays are all a Graph holds.
class Graph {
 public:
  Graph() = default;

  std::size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Edge ids parallel to `neighbors(v)`.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return {adjacency_edge_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::size_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Endpoints of edge `e`, with first < second.
  std::pair<VertexId, VertexId> edge(EdgeId e) const { return edges_[e]; }

  bool has_edge(VertexId u, VertexId v) const {
    return edge_between(u, v).has_value();
  }

  /// Id of the edge {u, v}, or nullopt when there is none (u == v and ids
  /// ≥ n included): a binary search on the lower-degree endpoint's row.
  std::optional<EdgeId> edge_between(VertexId u, VertexId v) const;

  double average_degree() const {
    return num_vertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) /
                     static_cast<double>(num_vertices());
  }

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_;       // n+1
  std::vector<VertexId> adjacency_;        // 2m
  std::vector<EdgeId> adjacency_edge_;     // 2m, parallel to adjacency_
  std::vector<std::pair<VertexId, VertexId>> edges_;  // m, (min, max)
};

/// Mutable accumulator for Graph. Deduplicates edges and drops self-loops.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices);

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Returns true iff the edge was new (not a duplicate or self-loop).
  bool add_edge(VertexId u, VertexId v);

  Graph build() const;

 private:
  std::size_t n_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::unordered_set<std::uint64_t> seen_;  // (min << 32) | max per edge
};

}  // namespace tgc::graph
