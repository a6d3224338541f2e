#include "tgcover/core/repair.hpp"

#include "tgcover/core/criterion.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::core {

using graph::Graph;
using graph::VertexId;

RepairResult dcc_repair(const Graph& g, const std::vector<bool>& internal,
                        const std::vector<bool>& active_before,
                        const std::vector<bool>& failed,
                        const util::Gf2Vector& cb, const DccConfig& config) {
  const std::size_t n = g.num_vertices();
  TGC_CHECK(internal.size() == n);
  TGC_CHECK(active_before.size() == n);
  TGC_CHECK(failed.size() == n);
  TGC_CHECK(cb.size() == 0 || cb.size() == g.num_edges());
  const bool certify = cb.size() != 0;

  RepairResult result;
  const unsigned k = config.vpt().effective_k();

  // A crashed node that carries a CB edge takes that edge down for good: no
  // wake can bring it back, so the certificate is lost whatever the radius.
  bool cb_severed = false;
  if (certify) {
    cb.for_each_set_bit([&](std::size_t e) {
      const auto [u, v] = g.edge(static_cast<graph::EdgeId>(e));
      if (failed[u] || failed[v]) cb_severed = true;
    });
  }

  std::vector<VertexId> failures;
  for (VertexId v = 0; v < n; ++v) {
    if (failed[v]) failures.push_back(v);
  }
  graph::BoundedBfs near;

  // Each wave is one fresh scheduler call: it restarts from the pre-failure
  // schedule, so it re-wakes every sleeper the previous wave put back to
  // sleep and no verdict from that wave could be reused (DESIGN.md §11).
  for (unsigned radius = k;; radius *= 2) {
    const obs::PhaseScope phase(obs::CostPhase::kRepairWave);
    obs::add(obs::CounterId::kRepairWaves, 1);
    // Wake the sleeping nodes within `radius` hops of a failure, measured
    // over the full surviving topology (sleeping radios can be woken, so
    // they relay). The wake set grows with the radius.
    near.run(g, failures, radius,
             [&](VertexId w, graph::EdgeId) { return !failed[w]; });
    obs::add(obs::CounterId::kBfsExpansions, near.expansions());
    std::vector<bool> awake(n, false);
    for (VertexId v = 0; v < n; ++v) awake[v] = active_before[v] && !failed[v];
    // Only the woken nodes are candidates for the cleanup deletions — the
    // pre-failure schedule is left untouched.
    std::vector<bool> deletable(n, false);
    std::size_t woken = 0;
    for (const VertexId v : near.reached()) {
      if (failed[v] || awake[v]) continue;
      awake[v] = true;
      deletable[v] = internal[v];
      ++woken;
    }

    const DccResult cleaned = dcc_schedule_from(g, deletable, awake, config);
    result.active = cleaned.active;
    result.woken = woken;
    result.redeleted = cleaned.deleted;
    result.final_radius = radius;
    result.survivors = cleaned.survivors;
    result.criterion_restored =
        certify && criterion_holds(g, cleaned.active, cb, config.tau);
    TGC_LOG(kDebug) << "repair wave" << obs::kv("radius", radius)
                    << obs::kv("woken", woken)
                    << obs::kv("redeleted", cleaned.deleted)
                    << obs::kv("restored", result.criterion_restored);

    // Escalate only while the search from the failures is cut off by the
    // radius. Once it is not, every node a failure can reach is awake and a
    // wider wave would wake nobody; with no failures that is the first wave.
    // Nodes no failure reaches never hold the escalation open.
    if (!certify || result.criterion_restored || cb_severed ||
        !near.cut_off()) {
      return result;
    }
  }
}

}  // namespace tgc::core
