#include "tgcover/core/distributed.hpp"

#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/sim/flood.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc::core {

namespace {

using graph::VertexId;

constexpr std::uint32_t kMsgDeleted = 20;

double sched_clock(const sim::SyncRunner& runner) {
  return static_cast<double>(runner.stats().rounds);
}

/// RAII kPhaseBegin/kPhaseEnd pair around one scheduler phase.
class TracedPhase {
 public:
  TracedPhase(const sim::SyncRunner& runner, obs::TracePhase phase)
      : runner_(&runner), phase_(static_cast<std::uint32_t>(phase)) {
    if (obs::trace_active()) {
      obs::trace_emit(obs::TraceKind::kPhaseBegin, obs::kTraceNoNode,
                      obs::kTraceNoNode, phase_, 0, sched_clock(*runner_));
    }
  }
  ~TracedPhase() {
    if (obs::trace_active()) {
      obs::trace_emit(obs::TraceKind::kPhaseEnd, obs::kTraceNoNode,
                      obs::kTraceNoNode, phase_, 0, sched_clock(*runner_));
    }
  }
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

 private:
  const sim::SyncRunner* runner_;
  std::uint32_t phase_;
};

/// k-hop flood of the deleted node ids (one-word records); every node that
/// hears an id removes that node from its local view. Runs while the
/// deleted nodes are still active so the notices propagate over the
/// pre-deletion topology — exactly the set of nodes whose views mention
/// them. Returns the non-selected nodes that heard at least one id: since a
/// node's view changes only through these erasures and its verdict is a
/// pure function of the view, the heard set IS the exact dirty frontier for
/// the verdict cache.
std::vector<VertexId> flood_deletions(sim::SyncRunner& runner,
                                      const std::vector<bool>& selected,
                                      unsigned k,
                                      std::vector<sim::LocalView>& views) {
  const std::size_t n = runner.graph().num_vertices();
  std::vector<std::vector<std::uint32_t>> heard(n);
  for (VertexId v = 0; v < n; ++v) {
    if (selected[v]) heard[v].push_back(v);
  }
  sim::flood(runner, heard, k, kMsgDeleted,
             [](std::span<const std::uint32_t>) -> std::size_t { return 1; });

  std::vector<VertexId> dirtied;
  for (VertexId v = 0; v < n; ++v) {
    if (selected[v]) continue;  // about to power down anyway
    if (!heard[v].empty()) dirtied.push_back(v);
    for (const VertexId who : heard[v]) views[v].erase_node(who);
  }
  return dirtied;
}

/// The protocol itself, generic over the synchronous-round substrate: the
/// same code drives the ideal RoundEngine and the α-synchronized lossy
/// asynchronous engine. Traffic accounting is substrate-specific and left to
/// the public wrappers.
DccDistributedResult run_distributed(sim::SyncRunner& runner,
                                     const graph::Graph& g,
                                     const std::vector<bool>& internal,
                                     const DccConfig& config) {
  TGC_CHECK(internal.size() == g.num_vertices());
  TGC_CHECK(config.tau >= 3);
  TGC_CHECK_MSG(config.mis_priorities.empty(),
                "custom MIS priorities are oracle-only");
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();

  DccDistributedResult out;
  out.schedule.active.assign(g.num_vertices(), true);

  // Phase 0: every node collects its k-hop neighbourhood.
  std::vector<sim::LocalView> views;
  {
    TGC_OBS_SPAN(obs::SpanId::kKhopCollect);
    const obs::CostPhaseScope cost_phase(obs::CostPhase::kKhop);
    TracedPhase traced(runner, obs::TracePhase::kKhop);
    views = sim::collect_k_hop_views(runner, k);
  }
  // Round 0: the k-hop collection floods dominate a run's traffic and get
  // their own node-telemetry bucket, and the full deployment's coverage is
  // the baseline the per-round quality samples are judged against.
  obs::setup_end(runner.active());

  // In the field every node evaluates its own verdict; the simulator fans
  // the independent evaluations over the pool. Workers write only their
  // nodes' slots of the verdict array (distinct chars) and emit no trace
  // events, so both the schedule and the trace are bit-identical for every
  // thread count.
  util::ThreadPool pool(config.num_threads);
  std::vector<VptWorkspace> workspaces(pool.num_workers());
  std::vector<VertexId> to_test;

  // Per-node verdict cache for the distributed protocol. A node's verdict is
  // a pure function of its local view, and views change only through the
  // deletion-flood erasures, so a node re-evaluates exactly when it heard a
  // deletion notice (the dirty frontier flood_deletions returns) — no extra
  // messages needed; the invalidation signal is the protocol's own flood.
  // `verdict` holds each node's latest test (distinct char slots, written
  // by the workers); every node starts dirty.
  std::vector<char> verdict(g.num_vertices(), 0);
  std::vector<bool> dirty(g.num_vertices(), true);

  while (true) {
    obs::round_begin();
    const bool traced = obs::trace_active();
    const auto attempt = static_cast<std::uint32_t>(out.schedule.rounds + 1);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kSchedRoundBegin, obs::kTraceNoNode,
                      obs::kTraceNoNode, 0, attempt, sched_clock(runner));
    }

    // Phase 1: local VPT verdicts — no communication needed.
    std::vector<bool> candidate(g.num_vertices(), false);
    std::size_t num_candidates = 0;
    {
      TGC_OBS_SPAN(obs::SpanId::kVerdicts);
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kVerdicts);
      TracedPhase traced_phase(runner, obs::TracePhase::kVerdicts);
      to_test.clear();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!out.schedule.active[v] || !internal[v]) continue;
        if (dirty[v]) {
          to_test.push_back(v);
        } else {
          ++out.schedule.cache_hits;
          obs::add(obs::CounterId::kVerdictCacheHits, 1);
        }
      }
      out.schedule.vpt_tests += to_test.size();
      pool.parallel_for(0, to_test.size(),
                        [&](std::size_t i, unsigned worker) {
                          verdict[to_test[i]] = vpt_vertex_deletable_local(
                              views[to_test[i]], vpt, workspaces[worker]);
                        });
      for (const VertexId v : to_test) dirty[v] = false;
      // One ascending pass over cached and fresh verdicts alike: candidates
      // and kVerdict trace events come out in node order whether a verdict
      // was re-evaluated or reused, so the trace stream does not depend on
      // which nodes the deletion floods dirtied.
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!out.schedule.active[v] || !internal[v]) continue;
        if (traced) {
          obs::trace_emit(obs::TraceKind::kVerdict, v, obs::kTraceNoNode, 0,
                          verdict[v] != 0 ? 1 : 0, sched_clock(runner));
        }
        if (verdict[v] != 0) {
          candidate[v] = true;
          ++num_candidates;
        }
      }
    }
    if (num_candidates == 0) {
      if (traced) {
        // type 0: the fixpoint probe — verdicts ran but nothing was deleted.
        obs::trace_emit(obs::TraceKind::kSchedRoundEnd, obs::kTraceNoNode,
                        obs::kTraceNoNode, 0, attempt, sched_clock(runner));
      }
      break;
    }
    ++out.schedule.rounds;

    // Phase 2: m-hop MIS election among candidates.
    std::vector<bool> selected;
    {
      TGC_OBS_SPAN(obs::SpanId::kMis);
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kMis);
      TracedPhase traced_phase(runner, obs::TracePhase::kMis);
      const std::uint64_t round_seed =
          util::splitmix64(config.seed + out.schedule.rounds);
      const sim::MisOutcome mis = sim::elect_mis_distributed(
          runner, candidate, vpt.mis_radius(), round_seed);
      out.mis_subrounds += mis.subrounds;
      selected = mis.selected;
    }

    // Phase 3: deletion announcements, then power-down.
    std::size_t num_selected = 0;
    {
      TGC_OBS_SPAN(obs::SpanId::kDeletion);
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kDeletion);
      TracedPhase traced_phase(runner, obs::TracePhase::kDeletion);
      const std::vector<VertexId> dirtied =
          flood_deletions(runner, selected, k, views);
      for (const VertexId v : dirtied) dirty[v] = true;
      obs::add(obs::CounterId::kDirtyNodes, dirtied.size());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!selected[v]) continue;
        runner.deactivate(v);
        out.schedule.active[v] = false;
        ++out.schedule.deleted;
        ++num_selected;
      }
    }
    out.schedule.per_round.push_back(
        DccRoundInfo{num_candidates, num_selected});
    obs::round_end(runner.active(), num_candidates, num_selected);
    if (traced) {
      // type 1: a completed deletion round. `tgcover report` counts these and
      // the count must equal the scheduler's reported rounds.
      obs::trace_emit(obs::TraceKind::kSchedRoundEnd, obs::kTraceNoNode,
                      obs::kTraceNoNode, 1, attempt, sched_clock(runner));
    }
  }

  out.schedule.survivors = g.num_vertices() - out.schedule.deleted;
  return out;
}

}  // namespace

DccDistributedResult dcc_schedule_distributed(const graph::Graph& g,
                                              const std::vector<bool>& internal,
                                              const DccConfig& config) {
  sim::RoundEngine engine(g);
  DccDistributedResult out = run_distributed(engine, g, internal, config);
  out.traffic = engine.stats();
  return out;
}

DccDistributedResult dcc_schedule_distributed_async(
    const graph::Graph& g, const std::vector<bool>& internal,
    const DccConfig& config, const DccAsyncOptions& async) {
  sim::AsyncEngine engine(g, async.net);
  sim::AlphaSynchronizer runner(engine, async.retransmit_interval);
  DccDistributedResult out = run_distributed(runner, g, internal, config);
  out.traffic = runner.stats();
  out.messages_lost = engine.messages_lost();
  out.retransmissions = runner.retransmissions();
  out.sim_duration = engine.now();
  return out;
}

}  // namespace tgc::core
