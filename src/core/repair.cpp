#include "tgcover/core/repair.hpp"

#include <algorithm>
#include <deque>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/verdict_cache.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::core {

namespace {

using graph::Graph;
using graph::VertexId;

/// Non-failed nodes within `radius` hops of any failed node, measured over
/// the full surviving topology (sleeping radios can be woken, so they relay
/// for the purpose of this distance).
std::vector<bool> near_failures(const Graph& g, const std::vector<bool>& failed,
                                unsigned radius) {
  std::vector<std::uint32_t> dist(g.num_vertices(), graph::kUnreached);
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (failed[v]) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  std::uint64_t expanded = 0;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    if (dist[u] == radius) continue;
    for (const VertexId w : g.neighbors(u)) {
      if (failed[w] || dist[w] != graph::kUnreached) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
      ++expanded;
    }
  }
  obs::add(obs::CounterId::kBfsExpansions, expanded);
  std::vector<bool> near(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    near[v] = !failed[v] && dist[v] != graph::kUnreached;
  }
  return near;
}

}  // namespace

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

  // One verdict cache threaded through every escalating wave: each wave's
  // awake set differs from the previous one only near the failures, so
  // `prepare` re-dirties just that delta's k-neighbourhood and verdicts far
  // from the failure survive wave re-entry instead of being recomputed from
  // scratch each time the radius doubles.
  VerdictCache wave_cache;
  DccConfig wave_config = config;
  if (wave_config.cache == nullptr) wave_config.cache = &wave_cache;

  for (unsigned radius = k;; radius *= 2) {
    TGC_OBS_SPAN(obs::SpanId::kRepairWave);
    const obs::CostPhaseScope cost_phase(obs::CostPhase::kRepair);
    obs::add(obs::CounterId::kRepairWaves, 1);
    // Wake the sleeping nodes near the failures (cumulative as the radius
    // escalates: near_failures is monotone in radius).
    const auto near = near_failures(g, failed, radius);
    std::vector<bool> awake(n, false);
    std::vector<bool> deletable(n, false);
    std::size_t woken = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (failed[v]) continue;
      const bool was_awake = active_before[v];
      const bool wake_now = !was_awake && near[v];
      awake[v] = was_awake || wake_now;
      // Only the woken nodes are candidates for the cleanup deletions — the
      // pre-failure schedule is left untouched.
      deletable[v] = wake_now && internal[v];
      if (wake_now) ++woken;
    }

    const DccResult cleaned =
        dcc_schedule_from(g, deletable, awake, wave_config);
    result.active = cleaned.active;
    result.woken = woken;
    result.redeleted = cleaned.deleted;
    result.final_radius = radius;
    result.survivors = cleaned.survivors;
    result.criterion_restored =
        certify && criterion_holds(g, cleaned.active, cb, config.tau);
    if (obs::profile_active()) {
      // One timeline landmark per escalation wave, tagged with the radius
      // (the natural "round" of the repair loop), plus a memory sample so
      // the dashboard shows the wake-radius doubling against RSS.
      obs::profile_round(radius);
      obs::profile_mem_sample();
    }
    TGC_LOG(kDebug) << "repair wave" << obs::kv("radius", radius)
                    << obs::kv("woken", woken)
                    << obs::kv("redeleted", cleaned.deleted)
                    << obs::kv("restored", result.criterion_restored);

    if (!certify || result.criterion_restored || cb_severed) return result;

    // Escalate until everything sleeping is awake; then give up (the
    // survivors simply cannot certify τ any more). With no failures at all
    // `near` never grows, so escalation cannot help either — give up after
    // the first wave instead of doubling the radius forever.
    bool everyone_near = true;
    bool any_failed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (failed[v]) any_failed = true;
      if (!failed[v] && !near[v]) everyone_near = false;
    }
    if (everyone_near || !any_failed) return result;
  }
}

}  // namespace tgc::core
