#include "tgcover/core/scheduler.hpp"

#include <algorithm>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc::core {

using graph::Graph;
using graph::VertexId;

DccResult dcc_schedule(const Graph& g, const std::vector<bool>& internal,
                       const DccConfig& config) {
  return dcc_schedule_from(g, internal,
                           std::vector<bool>(g.num_vertices(), true), config);
}

DccResult dcc_schedule_from(const Graph& g, const std::vector<bool>& internal,
                            const std::vector<bool>& initial_active,
                            const DccConfig& config) {
  TGC_CHECK(internal.size() == g.num_vertices());
  TGC_CHECK(initial_active.size() == g.num_vertices());
  TGC_CHECK(config.tau >= 3);
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();

  // The verdict fan-out pool. Each worker owns a private VptWorkspace; every
  // other scratch buffer below is touched only by the scheduler thread.
  util::ThreadPool pool(config.num_threads);
  std::vector<VptWorkspace> workspaces(pool.num_workers());

  DccResult result;
  result.active = initial_active;

  // Per-call verdict cache (DESIGN.md §11). A verdict depends only on the
  // punctured k-hop ball, so it stays valid until a deletion lands within k
  // hops. `verdict` holds each node's latest test; workers write distinct
  // char slots (no word sharing), and the scheduler thread alone touches
  // the packed dirty bits. Every node starts dirty.
  const std::size_t n = g.num_vertices();
  std::vector<char> verdict(n, 0);
  std::vector<bool> dirty(n, true);
  obs::add(obs::CounterId::kDirtyNodes, n);
  graph::BoundedBfs frontier;
  std::vector<VertexId> to_test;
  std::vector<VertexId> deleted_wave;

  while (true) {
    obs::round_begin();
    // Step 1 (Section V-B): every internal node tests its own deletability
    // from local connectivity. Only dirty nodes are tested; the rest reuse
    // their verdict, which is sound because no deletion has reached their
    // ball since it was computed. Each verdict reads only the graph and the
    // pre-round `active` snapshot and writes only its own slot, so the dirty
    // set fans out over the pool and the outcome is bit-identical to the
    // serial loop.
    {
      const obs::PhaseScope phase(obs::CostPhase::kVerdicts);
      to_test.clear();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!result.active[v] || !internal[v]) continue;
        if (dirty[v]) {
          to_test.push_back(v);
        } else {
          ++result.cache_hits;
          obs::add(obs::CounterId::kVerdictCacheHits, 1);
        }
      }
      result.vpt_tests += to_test.size();
      pool.parallel_for(0, to_test.size(), [&](std::size_t i, unsigned worker) {
        const VertexId v = to_test[i];
        verdict[v] =
            vpt_vertex_deletable(g, result.active, v, vpt, workspaces[worker]);
      });
      for (const VertexId v : to_test) dirty[v] = false;
    }

    std::vector<bool> candidate(g.num_vertices(), false);
    std::size_t num_candidates = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!result.active[v] || !internal[v]) continue;
      if (verdict[v] != 0) {
        candidate[v] = true;
        ++num_candidates;
      }
    }
    if (num_candidates == 0) break;
    ++result.rounds;

    // Step 2: an m-hop MIS among the candidates is elected; its members can
    // delete themselves simultaneously (pairwise distance ≥ k+1 keeps their
    // punctured neighbourhoods disjoint from each other).
    std::vector<bool> selected;
    {
      const obs::PhaseScope phase(obs::CostPhase::kMis);
      if (config.mis_priorities.empty()) {
        const std::uint64_t round_seed =
            util::splitmix64(config.seed + result.rounds);
        selected = sim::elect_mis_oracle(g, result.active, candidate,
                                         vpt.mis_radius(), round_seed);
      } else {
        selected = sim::elect_mis_oracle_with_priorities(
            g, result.active, candidate, vpt.mis_radius(),
            config.mis_priorities);
      }
    }

    // Step 3: delete the MIS; verdicts within k hops of a deletion (over the
    // pre-deletion topology) become stale. One multi-source BFS covers the
    // whole wave — MIS spacing ≥ k+1 keeps the sources distinct but their
    // k-balls may still meet (at distance up to 2k), and the joint frontier
    // visits that overlap once.
    {
      const obs::PhaseScope phase(obs::CostPhase::kDeletion);
      deleted_wave.clear();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (selected[v]) deleted_wave.push_back(v);
      }
      TGC_CHECK(!deleted_wave.empty());  // MIS of a non-empty set is non-empty
      frontier.run(g, deleted_wave, k, [&](VertexId w, graph::EdgeId) {
        return result.active[w];
      });
      obs::add(obs::CounterId::kBfsExpansions, frontier.expansions());
      std::size_t marked = 0;
      for (const VertexId w : frontier.reached()) {
        if (!dirty[w]) {
          dirty[w] = true;
          ++marked;
        }
      }
      obs::add(obs::CounterId::kDirtyNodes, marked);
      for (const VertexId v : deleted_wave) {
        result.active[v] = false;
        ++result.deleted;
      }
    }
    const std::size_t num_selected = deleted_wave.size();
    result.per_round.push_back(DccRoundInfo{num_candidates, num_selected});
    obs::round_end(result.active, num_candidates, num_selected);
    TGC_LOG(kDebug) << "dcc round" << obs::kv("round", result.rounds)
                    << obs::kv("active", std::count(result.active.begin(),
                                                    result.active.end(), true))
                    << obs::kv("candidates", num_candidates)
                    << obs::kv("deleted", num_selected);
  }

  result.survivors = 0;
  for (const bool a : result.active) {
    if (a) ++result.survivors;
  }
  return result;
}

}  // namespace tgc::core
