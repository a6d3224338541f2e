#include "tgcover/core/edge_scheduler.hpp"

#include <algorithm>

#include "tgcover/core/vpt.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

EdgeScheduleResult dcc_schedule_edges(const Graph& g,
                                      const std::vector<bool>& node_active,
                                      const util::Gf2Vector& protected_edges,
                                      const DccConfig& config) {
  TGC_CHECK(node_active.size() == g.num_vertices());
  TGC_CHECK(protected_edges.size() == g.num_edges() ||
            protected_edges.size() == 0);
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();

  EdgeScheduleResult result;
  result.edge_active.assign(g.num_edges(), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    result.edge_active[e] = node_active[u] && node_active[v];
  }
  auto is_protected = [&](EdgeId e) {
    return protected_edges.size() != 0 && protected_edges.test(e);
  };

  // Per-call verdict cache: every link starts dirty and is re-tested only
  // after a deletion lands near it.
  std::vector<bool> deletable(g.num_edges(), false);
  std::vector<bool> dirty(g.num_edges(), true);
  VptWorkspace ws;

  // The nodes within `depth` hops of link e's endpoints over the masked
  // topology (active nodes, active links); valid until the next call.
  graph::BoundedBfs ball;
  const auto around = [&](EdgeId e, unsigned depth) {
    const auto [u, v] = g.edge(e);
    const VertexId ends[] = {u, v};
    ball.run(g, ends, depth, [&](VertexId w, EdgeId we) {
      return node_active[w] && result.edge_active[we];
    });
    return ball.reached();
  };

  while (true) {
    // Candidate links: deletable per the VPT edge operator.
    std::vector<EdgeId> candidates;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!result.edge_active[e] || is_protected(e)) continue;
      if (dirty[e]) {
        ++result.vpt_tests;
        deletable[e] = vpt_edge_deletable(g, node_active, result.edge_active,
                                          e, vpt, ws);
        dirty[e] = false;
      }
      if (deletable[e]) candidates.push_back(e);
    }
    if (candidates.empty()) break;
    ++result.rounds;

    // Greedy-by-priority MIS over links: two candidate links conflict when
    // their endpoint sets are within k hops — the same independence distance
    // as simultaneous vertex deletions. Then no selected link lies in, or
    // on a short path into, another selected link's k-hop ball, so the
    // round's deletions keep each other's verdicts.
    const std::uint64_t round_seed =
        util::splitmix64(config.seed + 0x5eed + result.rounds);
    std::sort(candidates.begin(), candidates.end(), [&](EdgeId a, EdgeId b) {
      const auto pa = sim::mis_priority(round_seed, a);
      const auto pb = sim::mis_priority(round_seed, b);
      return pa != pb ? pa > pb : a < b;
    });
    std::vector<bool> node_blocked(g.num_vertices(), false);
    std::vector<EdgeId> selected;
    for (const EdgeId e : candidates) {
      const auto [u, v] = g.edge(e);
      if (node_blocked[u] || node_blocked[v]) continue;
      selected.push_back(e);
      for (const VertexId w : around(e, k)) node_blocked[w] = true;
    }
    TGC_CHECK(!selected.empty());

    // Delete the selected links; verdicts near them go stale.
    for (const EdgeId e : selected) {
      for (const VertexId w : around(e, k + 1)) {
        for (const EdgeId ne : g.incident_edges(w)) dirty[ne] = true;
      }
      result.edge_active[e] = false;
      ++result.pruned;
    }
  }

  result.kept = static_cast<std::size_t>(std::count(
      result.edge_active.begin(), result.edge_active.end(), true));
  return result;
}

}  // namespace tgc::core
