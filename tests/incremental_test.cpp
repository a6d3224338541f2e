// Equivalence suite for the incremental round engine (DESIGN.md §11).
//
// The contract under test: with `DccConfig::incremental` on (the default),
// VPT verdicts are cached across rounds and only the dirty frontier of each
// deletion wave is re-tested — and the schedule is *bit-identical* to the
// full recompute (`--no-incremental`), at every thread count, on every
// executor (oracle, synchronous distributed, asynchronous lossy), through
// mid-protocol deactivation and across repair waves. Verdicts are pure
// functions of the punctured k-hop ball, so any divergence is a cache
// invalidation bug, not noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "tgcover/boundary/label.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/verdict_cache.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core {
namespace {

using graph::Graph;
using graph::VertexId;

struct Instance {
  gen::Deployment dep;
  std::vector<bool> internal;
};

Instance make_instance(std::uint64_t seed, std::size_t n = 150,
                       double side = 5.2) {
  util::Rng rng(9000 + seed);
  Instance inst{gen::random_connected_udg(n, side, 1.0, rng), {}};
  const auto boundary =
      boundary::label_outer_band(inst.dep.positions, inst.dep.area, 1.0);
  inst.internal.resize(inst.dep.graph.num_vertices());
  for (VertexId v = 0; v < inst.dep.graph.num_vertices(); ++v) {
    inst.internal[v] = !boundary[v];
  }
  return inst;
}

// ------------------------------------------------------ oracle equivalence

TEST(IncrementalEquivalence, RandomizedDeletionWaves) {
  // Randomized deletion-wave equivalence: across instances, taus, and
  // thread counts, the incremental schedule must equal the full recompute
  // in every observable (active mask, round trace, deletion counts) while
  // doing strictly less VPT work on multi-round runs.
  for (const std::uint64_t instance : {0ull, 1ull, 2ull}) {
    for (const unsigned tau : {3u, 4u}) {
      const Instance inst = make_instance(instance * 17 + tau);
      DccConfig full;
      full.tau = tau;
      full.seed = 21 + instance;
      full.incremental = false;
      const DccResult want = dcc_schedule(inst.dep.graph, inst.internal, full);
      ASSERT_GT(want.deleted, 0u);

      DccConfig inc = full;
      inc.incremental = true;
      for (const unsigned threads : {1u, 2u, 4u}) {
        inc.num_threads = threads;
        const DccResult got =
            dcc_schedule(inst.dep.graph, inst.internal, inc);
        EXPECT_EQ(got.active, want.active)
            << "instance " << instance << " tau " << tau << " threads "
            << threads;
        EXPECT_EQ(got.rounds, want.rounds);
        EXPECT_EQ(got.deleted, want.deleted);
        ASSERT_EQ(got.per_round.size(), want.per_round.size());
        for (std::size_t r = 0; r < got.per_round.size(); ++r) {
          EXPECT_EQ(got.per_round[r].candidates, want.per_round[r].candidates);
          EXPECT_EQ(got.per_round[r].deleted, want.per_round[r].deleted);
        }
        if (want.rounds > 1) {
          EXPECT_LT(got.vpt_tests, want.vpt_tests);
          EXPECT_GT(got.cache_hits, 0u);
        }
        EXPECT_EQ(got.vpt_tests + got.cache_hits, want.vpt_tests);
      }
    }
  }
}

TEST(IncrementalEquivalence, CostStreamIdenticalAcrossThreads) {
  // The machine-independent cost stream (a bundle's cost.jsonl) must be
  // byte-identical across thread counts *within* each mode. (Incremental
  // and full streams legitimately differ from each other — fewer vpt_tests
  // per round is the whole point — but neither may depend on the pool.)
  const Instance inst = make_instance(5);
  obs::set_enabled(true);
  for (const bool incremental : {true, false}) {
    std::string reference;
    for (const unsigned threads : {1u, 2u, 4u}) {
      DccConfig config;
      config.tau = 4;
      config.seed = 9;
      config.incremental = incremental;
      config.num_threads = threads;
      obs::RoundCollector collector;
      config.collector = &collector;
      const DccResult r = dcc_schedule(inst.dep.graph, inst.internal, config);
      collector.finalize(r.survivors);
      std::ostringstream out;
      collector.write_cost_jsonl(out);
      if (threads == 1) {
        reference = out.str();
        EXPECT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(out.str(), reference)
            << "incremental " << incremental << " threads " << threads;
      }
    }
  }
  obs::set_enabled(false);
}

// ------------------------------------------------- distributed equivalence

TEST(IncrementalEquivalence, DistributedSyncAndAsyncLossy) {
  // The distributed executors keep per-node verdict caches invalidated by
  // the deletion floods (the heard set IS the dirty frontier). Sync and
  // async-lossy runs must match the oracle in both modes.
  const Instance inst = make_instance(11, 110, 4.6);
  DccConfig config;
  config.tau = 4;
  config.seed = 31;

  config.incremental = false;
  const DccResult oracle_full =
      dcc_schedule(inst.dep.graph, inst.internal, config);
  config.incremental = true;
  const DccResult oracle_inc =
      dcc_schedule(inst.dep.graph, inst.internal, config);
  ASSERT_EQ(oracle_inc.active, oracle_full.active);
  ASSERT_GT(oracle_inc.deleted, 0u);

  for (const bool incremental : {true, false}) {
    config.incremental = incremental;
    const DccDistributedResult sync =
        dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
    EXPECT_EQ(sync.schedule.active, oracle_full.active)
        << "sync incremental=" << incremental;

    DccAsyncOptions async;
    async.net.loss_probability = 0.15;
    async.net.seed = 77;
    const DccDistributedResult lossy = dcc_schedule_distributed_async(
        inst.dep.graph, inst.internal, config, async);
    EXPECT_EQ(lossy.schedule.active, oracle_full.active)
        << "async incremental=" << incremental;
    EXPECT_GT(lossy.messages_lost, 0u);
  }
}

// ------------------------------------------- mid-protocol state transitions

TEST(IncrementalEquivalence, MidProtocolDeactivation) {
  // Deactivations between scheduler calls (nodes that went to sleep or
  // died outside any deletion wave) reach the cache only through
  // `prepare`'s awake-set diff. A cache that survived a previous run must
  // produce the same schedule as a cold full recompute on the degraded
  // network.
  const Instance inst = make_instance(23);
  const std::size_t n = inst.dep.graph.num_vertices();
  DccConfig config;
  config.tau = 4;
  config.seed = 13;

  // Stop the protocol after one round — mid-fixpoint, with internal nodes
  // still awake and a warm cache — then let nodes die before it resumes.
  VerdictCache cache;
  config.cache = &cache;
  config.max_rounds = 1;
  const DccResult first = dcc_schedule(inst.dep.graph, inst.internal, config);
  ASSERT_GT(first.deleted, 0u);
  config.max_rounds = static_cast<std::size_t>(-1);

  // Knock out a few awake internal nodes without telling the cache.
  std::vector<bool> degraded = first.active;
  std::size_t killed = 0;
  for (VertexId v = 0; v < n && killed < 3; ++v) {
    if (degraded[v] && inst.internal[v]) {
      degraded[v] = false;
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);

  const DccResult warm =
      dcc_schedule_from(inst.dep.graph, inst.internal, degraded, config);

  DccConfig cold = config;
  cold.cache = nullptr;
  cold.incremental = false;
  const DccResult want =
      dcc_schedule_from(inst.dep.graph, inst.internal, degraded, cold);
  EXPECT_EQ(warm.active, want.active);
  EXPECT_EQ(warm.rounds, want.rounds);
  // The warm cache actually reused verdicts from the first run.
  EXPECT_LT(warm.vpt_tests, want.vpt_tests);
}

TEST(IncrementalEquivalence, RepairWavesMatchFullRecompute) {
  // dcc_repair threads one VerdictCache through its escalating waves; the
  // repaired awake set must match the cache-free recompute exactly.
  util::Rng rng(73);
  Network net = prepare_network(gen::random_connected_udg(300, 5.5, 1.0, rng),
                                1.0);
  DccConfig config;
  config.tau = 4;
  config.seed = 5;
  const ScheduleSummary schedule = run_dcc(net, config);

  std::vector<bool> failed(net.dep.graph.num_vertices(), false);
  util::Rng kill_rng(74);
  std::size_t kills = 0;
  for (VertexId v = 0; v < net.dep.graph.num_vertices() && kills < 6; ++v) {
    if (schedule.result.active[v] && net.internal[v] &&
        kill_rng.bernoulli(0.3)) {
      failed[v] = true;
      ++kills;
    }
  }
  ASSERT_GT(kills, 0u);

  for (const util::Gf2Vector& cb : {net.cb, util::Gf2Vector()}) {
    config.incremental = true;
    const RepairResult inc = dcc_repair(
        net.dep.graph, net.internal, schedule.result.active, failed, cb,
        config);
    config.incremental = false;
    const RepairResult full = dcc_repair(
        net.dep.graph, net.internal, schedule.result.active, failed, cb,
        config);
    EXPECT_EQ(inc.active, full.active) << "cb size " << cb.size();
    EXPECT_EQ(inc.woken, full.woken);
    EXPECT_EQ(inc.redeleted, full.redeleted);
    EXPECT_EQ(inc.final_radius, full.final_radius);
    EXPECT_EQ(inc.criterion_restored, full.criterion_restored);
  }
}

// ------------------------------------------------------ adversarial verdicts

TEST(IncrementalEquivalence, VerdictFlipsBothWaysUnderReplay) {
  // Brute-force replay of the deletion fixpoint: every round, re-test EVERY
  // active internal node from scratch and elect the same MIS. The replay
  // must land on the scheduler's schedule, and across the instances the
  // verdict history must contain flips in BOTH directions — deletable →
  // not-deletable (a deletion disconnects a neighbour's punctured ball) and
  // not-deletable → deletable (a deletion shortens the neighbour's maximum
  // irreducible cycle). A cache that only handled one direction would pass
  // weaker tests.
  std::size_t flips_to_not = 0;
  std::size_t flips_to_deletable = 0;
  for (const std::uint64_t instance : {0ull, 1ull, 2ull, 3ull}) {
    const Instance inst = make_instance(400 + instance);
    const std::size_t n = inst.dep.graph.num_vertices();
    DccConfig config;
    config.tau = 4;
    config.seed = 61 + instance;
    const DccResult scheduled =
        dcc_schedule(inst.dep.graph, inst.internal, config);

    const VptConfig vpt = config.vpt();
    VptWorkspace ws;
    std::vector<bool> active(n, true);
    std::vector<char> history(n, -1);  // -1 unseen, else last verdict
    std::size_t round = 0;
    while (true) {
      std::vector<bool> candidate(n, false);
      std::size_t num_candidates = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (!active[v] || !inst.internal[v]) continue;
        const bool deletable =
            vpt_vertex_deletable(inst.dep.graph, active, v, vpt, ws);
        const char now = deletable ? 1 : 0;
        if (history[v] == 0 && now == 1) ++flips_to_deletable;
        if (history[v] == 1 && now == 0) ++flips_to_not;
        history[v] = now;
        if (deletable) {
          candidate[v] = true;
          ++num_candidates;
        }
      }
      if (num_candidates == 0) break;
      ++round;
      const std::uint64_t round_seed = util::splitmix64(config.seed + round);
      const std::vector<bool> selected = sim::elect_mis_oracle(
          inst.dep.graph, active, candidate, vpt.mis_radius(), round_seed);
      for (VertexId v = 0; v < n; ++v) {
        if (selected[v]) active[v] = false;
      }
    }
    EXPECT_EQ(active, scheduled.active) << "instance " << instance;
    EXPECT_EQ(round, scheduled.rounds);
  }
  EXPECT_GT(flips_to_not, 0u);
  EXPECT_GT(flips_to_deletable, 0u);
}

// --------------------------------------------------------- VerdictCache unit

TEST(VerdictCacheTest, DeletionFrontierMatchesBruteForce) {
  // note_deletions must mark dirty exactly the nodes within k hops of the
  // wave over the pre-deletion active topology — no more (wasted re-tests),
  // no fewer (stale verdicts, wrong schedules).
  const Instance inst = make_instance(81, 120, 4.4);
  const Graph& g = inst.dep.graph;
  const std::size_t n = g.num_vertices();
  const unsigned k = 2;

  std::vector<bool> active(n, true);
  util::Rng rng(7);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.15)) active[v] = false;
  }

  VerdictCache cache;
  cache.prepare(g, active, k);
  EXPECT_EQ(cache.last_dirty_marked(), n);  // cold cache: everything dirty
  for (VertexId v = 0; v < n; ++v) cache.store(v, false);

  std::vector<VertexId> wave;
  for (VertexId v = 0; v < n && wave.size() < 5; ++v) {
    if (active[v] && rng.bernoulli(0.1)) wave.push_back(v);
  }
  ASSERT_FALSE(wave.empty());
  cache.note_deletions(g, active, wave, k);

  // Brute force: multi-source BFS over active relays, depth k.
  std::vector<std::uint32_t> dist(n, graph::kUnreached);
  std::vector<VertexId> queue = wave;
  for (const VertexId s : wave) dist[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    if (dist[u] == k) continue;
    for (const VertexId w : g.neighbors(u)) {
      if (active[w] && dist[w] == graph::kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  std::size_t marked = 0;
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(cache.dirty(v), dist[v] != graph::kUnreached) << "vertex " << v;
    if (cache.dirty(v)) ++marked;
  }
  EXPECT_EQ(cache.last_dirty_marked(), marked);
}

TEST(VerdictCacheTest, PrepareDiffMarksUnionNeighbourhood) {
  // prepare() on a reused cache must re-dirty the union-topology k-ball of
  // every node whose active bit changed — covering both wakes (node now
  // relays where it didn't) and silent deaths (node relayed when the cached
  // verdicts were computed).
  const Instance inst = make_instance(82, 120, 4.4);
  const Graph& g = inst.dep.graph;
  const std::size_t n = g.num_vertices();
  const unsigned k = 2;

  std::vector<bool> before(n, true);
  before[3] = false;  // one sleeper that will wake
  VerdictCache cache;
  cache.prepare(g, before, k);
  for (VertexId v = 0; v < n; ++v) cache.store(v, true);

  std::vector<bool> after = before;
  after[3] = true;   // wake
  after[40] = false; // silent death
  cache.prepare(g, after, k);

  const std::vector<VertexId> changed{3, 40};
  std::vector<std::uint32_t> dist(n, graph::kUnreached);
  std::vector<VertexId> queue = changed;
  for (const VertexId s : changed) dist[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    if (dist[u] == k) continue;
    for (const VertexId w : g.neighbors(u)) {
      if ((before[w] || after[w]) && dist[w] == graph::kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(cache.dirty(v), dist[v] != graph::kUnreached) << "vertex " << v;
  }
}

// ------------------------------------------------------------ ball views

TEST(BallViewTest, MatchesInducedSubgraph) {
  // The arena-backed BallView must be structurally identical to the
  // builder-based induced subgraph it replaced: same local vertex order
  // (ascending member), same adjacency, and — load-bearing for Horton and
  // the GF(2) pivots — the same edge-id assignment.
  const Instance inst = make_instance(91, 130, 4.8);
  const Graph& g = inst.dep.graph;
  for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{64}}) {
    for (const unsigned k : {1u, 2u, 3u}) {
      std::vector<VertexId> members = graph::k_hop_neighbors(g, v, k);
      if (members.empty()) continue;

      std::vector<VertexId> local_of(g.num_vertices(), graph::kInvalidVertex);
      for (VertexId i = 0; i < members.size(); ++i) local_of[members[i]] = i;
      graph::BallView ball;
      ball.build(members.size(), [&](VertexId la, auto&& emit) {
        for (const VertexId b : g.neighbors(members[la])) {
          if (local_of[b] != graph::kInvalidVertex) emit(local_of[b]);
        }
      });

      const graph::InducedSubgraph want = graph::induce_vertices(g, members);
      ASSERT_EQ(ball.num_vertices(), want.graph.num_vertices());
      ASSERT_EQ(ball.num_edges(), want.graph.num_edges());
      for (VertexId lu = 0; lu < ball.num_vertices(); ++lu) {
        const auto got_n = ball.neighbors(lu);
        const auto want_n = want.graph.neighbors(lu);
        ASSERT_EQ(got_n.size(), want_n.size()) << "v " << v << " local " << lu;
        EXPECT_TRUE(std::equal(got_n.begin(), got_n.end(), want_n.begin()));
        const auto got_e = ball.incident_edges(lu);
        const auto want_e = want.graph.incident_edges(lu);
        EXPECT_TRUE(std::equal(got_e.begin(), got_e.end(), want_e.begin()));
      }
      for (graph::EdgeId e = 0; e < ball.num_edges(); ++e) {
        EXPECT_EQ(ball.edge(e), want.graph.edge(e)) << "edge " << e;
      }
    }
  }
}

// ------------------------------------------------------------- generators

TEST(CellGridTest, UdgEdgesMatchBruteForceScan) {
  // The cell-grid generator must reproduce the quadratic all-pairs scan
  // exactly: same edge set in the same edge-id (insertion) order. Dozens of
  // tests pin seeded topologies, so any reordering would show up loudly —
  // this test states the contract directly.
  util::Rng rng(314);
  const gen::Deployment dep = gen::random_udg(600, 10.0, 1.0, rng);
  const Graph& g = dep.graph;
  std::size_t next_edge = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      if (geom::dist2(dep.positions[u], dep.positions[v]) <= dep.rc * dep.rc) {
        ASSERT_LT(next_edge, g.num_edges());
        EXPECT_EQ(g.edge(next_edge), std::make_pair(u, v));
        ++next_edge;
      }
    }
  }
  EXPECT_EQ(next_edge, g.num_edges());
}

}  // namespace
}  // namespace tgc::core
