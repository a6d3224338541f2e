#include "tgcover/graph/graph.hpp"

#include <algorithm>

#include "tgcover/util/check.hpp"

namespace tgc::graph {

std::optional<EdgeId> Graph::edge_between(VertexId u, VertexId v) const {
  if (u == v || u >= num_vertices() || v >= num_vertices()) return std::nullopt;
  // A cone apex can have hundreds of neighbours; search the shorter row.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto row = neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return std::nullopt;
  return incident_edges(u)[static_cast<std::size_t>(it - row.begin())];
}

GraphBuilder::GraphBuilder(std::size_t num_vertices) : n_(num_vertices) {}

bool GraphBuilder::add_edge(VertexId u, VertexId v) {
  TGC_CHECK_MSG(u < n_ && v < n_, "edge (" << u << "," << v
                                           << ") out of range, n=" << n_);
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  if (!seen_.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
    return false;
  }
  edges_.emplace_back(u, v);
  return true;
}

Graph GraphBuilder::build() const {
  Graph g;
  g.edges_ = edges_;
  g.offsets_.assign(n_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) g.offsets_[i] += g.offsets_[i - 1];

  g.adjacency_.resize(2 * edges_.size());
  g.adjacency_edge_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const auto [u, v] = edges_[e];
    g.adjacency_[cursor[u]] = v;
    g.adjacency_edge_[cursor[u]++] = e;
    g.adjacency_[cursor[v]] = u;
    g.adjacency_edge_[cursor[v]++] = e;
  }

  // Sort each adjacency list by neighbor id, keeping edge ids parallel.
  for (VertexId v = 0; v < n_; ++v) {
    const std::size_t lo = g.offsets_[v];
    const std::size_t hi = g.offsets_[v + 1];
    std::vector<std::pair<VertexId, EdgeId>> tmp;
    tmp.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      tmp.emplace_back(g.adjacency_[i], g.adjacency_edge_[i]);
    }
    std::sort(tmp.begin(), tmp.end());
    for (std::size_t i = lo; i < hi; ++i) {
      g.adjacency_[i] = tmp[i - lo].first;
      g.adjacency_edge_[i] = tmp[i - lo].second;
    }
  }
  return g;
}

}  // namespace tgc::graph
