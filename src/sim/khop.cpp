#include "tgcover/sim/khop.hpp"

#include <limits>

#include "tgcover/sim/flood.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::sim {

namespace {

constexpr std::uint32_t kMsgAdjacency = 1;

std::size_t adjacency_size(std::span<const std::uint32_t> rest) {
  TGC_CHECK(rest.size() >= 2);
  return 2 + std::size_t{rest[1]};
}

}  // namespace

std::vector<LocalView> collect_k_hop_views(SyncRunner& runner, unsigned k) {
  TGC_CHECK(k >= 1);
  const graph::Graph& g = runner.graph();
  const std::size_t n = g.num_vertices();

  // Seed: every active node holds its own (active-filtered) adjacency.
  std::vector<std::vector<std::uint32_t>> held(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!runner.is_active(v)) continue;
    held[v] = {v, 0};
    for (const graph::VertexId u : g.neighbors(v)) {
      if (runner.is_active(u)) held[v].push_back(u);
    }
    held[v][1] = static_cast<std::uint32_t>(held[v].size() - 2);
  }
  flood(runner, held, k, kMsgAdjacency, adjacency_size);

  std::vector<LocalView> views(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!runner.is_active(v)) continue;
    LocalView& view = views[v];
    view.owner = v;
    view.order = n;
    view.pool = std::move(held[v]);
    TGC_CHECK(view.pool.size() <= std::numeric_limits<std::uint32_t>::max());
    for (std::size_t at = 0; at < view.pool.size();
         at += adjacency_size(std::span(view.pool).subspan(at))) {
      view.index.emplace(view.pool[at], static_cast<std::uint32_t>(at));
    }
  }
  return views;
}

}  // namespace tgc::sim
