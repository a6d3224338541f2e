#include "tgcover/graph/algorithms.hpp"

#include <algorithm>

#include "tgcover/util/check.hpp"

namespace tgc::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId src,
                                         std::uint32_t max_depth) {
  TGC_CHECK(src < g.num_vertices());
  BoundedBfs bfs;
  bfs.run(g, {&src, 1}, max_depth, [](VertexId, EdgeId) { return true; });
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
  for (const VertexId v : bfs.reached()) dist[v] = bfs.depth(v);
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  std::size_t count = 0;
  connected_components(g, &count);
  return count == 1;
}

std::vector<bool> largest_component_mask(const Graph& g) {
  std::size_t count = 0;
  const auto label = connected_components(g, &count);
  std::vector<std::size_t> sizes(count, 0);
  for (const std::uint32_t l : label) ++sizes[l];
  std::size_t best = 0;
  for (std::size_t c = 1; c < count; ++c) {
    if (sizes[c] > sizes[best]) best = c;
  }
  std::vector<bool> mask(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mask[v] = label[v] == best;
  }
  return mask;
}

std::vector<VertexId> k_hop_neighbors(const Graph& g, VertexId v, unsigned k) {
  TGC_CHECK(v < g.num_vertices());
  BoundedBfs bfs;
  bfs.run(g, {&v, 1}, k, [](VertexId, EdgeId) { return true; });
  std::vector<VertexId> out(bfs.reached().begin() + 1, bfs.reached().end());
  std::sort(out.begin(), out.end());
  return out;
}

VertexId ShortestPathTree::lca(VertexId x, VertexId y) const {
  TGC_CHECK(reached(x) && reached(y));
  while (x != y) {
    if (depth_[x] > depth_[y]) {
      x = parent_[x];
    } else if (depth_[y] > depth_[x]) {
      y = parent_[y];
    } else {
      x = parent_[x];
      y = parent_[y];
    }
  }
  return x;
}

std::vector<VertexId> ShortestPathTree::path_from_root(VertexId v) const {
  TGC_CHECK(reached(v));
  std::vector<VertexId> path;
  for (VertexId u = v; u != kInvalidVertex; u = parent_[u]) path.push_back(u);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace tgc::graph
