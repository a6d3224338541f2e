// Equivalence suite for the cross-round verdict cache (DESIGN.md §11).
//
// The contract under test: within one scheduler call, VPT verdicts are
// cached across rounds and only the k-hop frontier of each deletion wave is
// re-tested — and the schedule is *bit-identical* to a brute-force replay
// that re-tests every node every round (reference_replay.hpp), at every
// thread count, on every executor (oracle, synchronous distributed,
// asynchronous lossy) and across repair waves. Verdicts are pure functions
// of the punctured k-hop ball, so any divergence is a cache invalidation
// bug, not noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/boundary/label.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/rng.hpp"

#include "reference_replay.hpp"

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
  // thread counts, the cached schedule must equal the replay in every
  // observable (active mask, round trace, deletion counts) while running
  // exactly the tests an exact k-hop frontier calls for — strictly fewer
  // than the replay on multi-round runs.
  for (const std::uint64_t instance : {0ull, 1ull, 2ull}) {
    for (const unsigned tau : {3u, 4u}) {
      const Instance inst = make_instance(instance * 17 + tau);
      DccConfig config;
      config.tau = tau;
      config.seed = 21 + instance;
      const reference::Replay want =
          reference::replay_dcc(inst.dep.graph, inst.internal, config);
      ASSERT_GT(want.deleted, 0u);

      for (const unsigned threads : {1u, 2u, 4u}) {
        config.num_threads = threads;
        const DccResult got =
            dcc_schedule(inst.dep.graph, inst.internal, config);
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
        EXPECT_EQ(got.vpt_tests, want.frontier_tests);
      }
    }
  }
}

TEST(IncrementalEquivalence, CostStreamIdenticalAcrossThreads) {
  // The machine-independent cost stream (a bundle's cost.jsonl) must be
  // byte-identical across thread counts: which verdicts the cache reuses
  // may not depend on the pool.
  const Instance inst = make_instance(5);
  obs::set_enabled(true);
  std::string reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    DccConfig config;
    config.tau = 4;
    config.seed = 9;
    config.num_threads = threads;
    obs::RoundCollector collector;
    const obs::RunScope scope({&collector});
    const DccResult r = dcc_schedule(inst.dep.graph, inst.internal, config);
    collector.finalize(r.survivors);
    std::ostringstream out;
    collector.write_cost_jsonl(out);
    if (threads == 1) {
      reference = out.str();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(out.str(), reference) << "threads " << threads;
    }
  }
  obs::set_enabled(false);
}

// ------------------------------------------------- distributed equivalence

TEST(IncrementalEquivalence, DistributedSyncAndAsyncLossy) {
  // The distributed executors keep per-node verdict caches invalidated by
  // the deletion floods (the heard set IS the dirty frontier). The oracle,
  // sync and async-lossy runs must all match the replay.
  const Instance inst = make_instance(11, 110, 4.6);
  DccConfig config;
  config.tau = 4;
  config.seed = 31;

  const reference::Replay want =
      reference::replay_dcc(inst.dep.graph, inst.internal, config);
  ASSERT_GT(want.deleted, 0u);
  const DccResult oracle = dcc_schedule(inst.dep.graph, inst.internal, config);
  EXPECT_EQ(oracle.active, want.active);

  const DccDistributedResult sync =
      dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
  EXPECT_EQ(sync.schedule.active, want.active);

  DccAsyncOptions async;
  async.net.loss_probability = 0.15;
  async.net.seed = 77;
  const DccDistributedResult lossy = dcc_schedule_distributed_async(
      inst.dep.graph, inst.internal, config, async);
  EXPECT_EQ(lossy.schedule.active, want.active);
  EXPECT_GT(lossy.messages_lost, 0u);
}

// ------------------------------------------------------------- repair

TEST(IncrementalEquivalence, RepairWavesMatchFullRecompute) {
  // dcc_repair runs one scheduler call per escalating wave. Each wave it
  // ran is replayed from scratch: wake the sleepers within the wave's
  // radius of a failure, replay the fixpoint with only the woken
  // internal nodes deletable, and check the criterion. Every wave before
  // the last must fail to restore the certificate (or the repair would have
  // stopped there), and the last must reproduce the repair's outcome.
  util::Rng rng(73);
  Network net = prepare_network(gen::random_connected_udg(300, 5.5, 1.0, rng),
                                1.0);
  const Graph& g = net.dep.graph;
  const std::size_t n = g.num_vertices();
  DccConfig config;
  config.tau = 4;
  config.seed = 5;
  const ScheduleSummary schedule = run_dcc(net, config);
  const std::vector<bool>& before = schedule.result.active;

  std::vector<bool> failed(n, false);
  util::Rng kill_rng(74);
  std::size_t kills = 0;
  for (VertexId v = 0; v < n && kills < 6; ++v) {
    if (before[v] && net.internal[v] && kill_rng.bernoulli(0.3)) {
      failed[v] = true;
      ++kills;
    }
  }
  ASSERT_GT(kills, 0u);

  const unsigned k = config.vpt().effective_k();
  for (const util::Gf2Vector& cb : {net.cb, util::Gf2Vector()}) {
    const RepairResult got =
        dcc_repair(g, net.internal, before, failed, cb, config);
    ASSERT_GE(got.final_radius, k);
    for (unsigned radius = k; radius <= got.final_radius; radius *= 2) {
      std::vector<bool> near(n, false);
      for (VertexId f = 0; f < n; ++f) {
        if (!failed[f]) continue;
        const std::vector<std::uint32_t> dist =
            graph::bfs_distances(g, f, radius);
        for (VertexId v = 0; v < n; ++v) {
          if (dist[v] != graph::kUnreached) near[v] = true;
        }
      }
      std::vector<bool> awake(n, false);
      std::vector<bool> deletable(n, false);
      std::size_t woken = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (failed[v]) continue;
        const bool wake = !before[v] && near[v];
        awake[v] = before[v] || wake;
        deletable[v] = wake && net.internal[v];
        if (wake) ++woken;
      }
      const reference::Replay wave =
          reference::replay_dcc_from(g, deletable, awake, config);
      const bool restored =
          cb.size() != 0 && criterion_holds(g, wave.active, cb, config.tau);
      if (radius < got.final_radius) {
        EXPECT_FALSE(restored) << "cb size " << cb.size() << " radius "
                               << radius;
        continue;
      }
      EXPECT_EQ(got.active, wave.active) << "cb size " << cb.size();
      EXPECT_EQ(got.woken, woken);
      EXPECT_EQ(got.redeleted, wave.deleted);
      EXPECT_EQ(got.criterion_restored, restored);
    }
  }
}

// ------------------------------------------------------ adversarial verdicts

TEST(IncrementalEquivalence, VerdictFlipsBothWaysUnderReplay) {
  // The scheduler must land on the replay's schedule, and across the
  // instances the replay's verdict history must contain flips in BOTH
  // directions — deletable → not-deletable (a deletion disconnects a
  // neighbour's punctured ball) and not-deletable → deletable (a deletion
  // shortens the neighbour's maximum irreducible cycle). A cache that only
  // handled one direction would pass weaker tests.
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

    std::vector<char> history(n, -1);  // -1 unseen, else last verdict
    const reference::Replay replay = reference::replay_dcc_from(
        inst.dep.graph, inst.internal, std::vector<bool>(n, true), config,
        [&](VertexId v, bool deletable) {
          const char now = deletable ? 1 : 0;
          if (history[v] == 0 && now == 1) ++flips_to_deletable;
          if (history[v] == 1 && now == 0) ++flips_to_not;
          history[v] = now;
        });
    EXPECT_EQ(replay.active, scheduled.active) << "instance " << instance;
    EXPECT_EQ(replay.rounds, scheduled.rounds);
  }
  EXPECT_GT(flips_to_not, 0u);
  EXPECT_GT(flips_to_deletable, 0u);
}

// ------------------------------------------------------- deletion frontier

TEST(BoundedBfs, DeletionFrontierMatchesBruteForce) {
  // A deletion wave's frontier — the nodes within k hops of the wave over
  // the pre-deletion active topology — must be exactly the nodes whose ball
  // intersects the wave: no more (wasted re-tests), no fewer (stale
  // verdicts, wrong schedules).
  const Instance inst = make_instance(81, 120, 4.4);
  const Graph& g = inst.dep.graph;
  const std::size_t n = g.num_vertices();
  const unsigned k = 2;

  std::vector<bool> active(n, true);
  util::Rng rng(7);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.15)) active[v] = false;
  }

  std::vector<VertexId> wave;
  for (VertexId v = 0; v < n && wave.size() < 5; ++v) {
    if (active[v] && rng.bernoulli(0.1)) wave.push_back(v);
  }
  ASSERT_FALSE(wave.empty());
  graph::BoundedBfs bfs;
  bfs.run(g, wave, k, [&](VertexId w, graph::EdgeId) { return active[w]; });

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
  std::vector<bool> reached(n, false);
  for (const VertexId v : bfs.reached()) reached[v] = true;
  std::size_t marked = 0;
  bool cut = false;
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(reached[v], dist[v] != graph::kUnreached) << "vertex " << v;
    if (dist[v] == graph::kUnreached) continue;
    ++marked;
    for (const VertexId w : g.neighbors(v)) {
      if (dist[v] == k && active[w] && dist[w] == graph::kUnreached) cut = true;
    }
  }
  EXPECT_EQ(bfs.reached().size(), marked);  // each vertex once
  EXPECT_EQ(bfs.expansions(), marked - wave.size());
  EXPECT_TRUE(cut);
  EXPECT_EQ(bfs.cut_off(), cut);
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

TEST(BallViewTest, AsymmetricRowsAreRefusedInBothDirections) {
  // The refusal message of a build from explicit rows ("" when accepted).
  const auto refusal = [](const std::vector<std::vector<VertexId>>& rows) {
    graph::BallView ball;
    try {
      ball.build(rows.size(), [&](VertexId la, auto&& emit) {
        for (const VertexId lb : rows[la]) emit(lb);
      });
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto names = [](const std::string& what, const std::string& pair) {
    return what.find("asymmetric ball rows: " + pair) != std::string::npos;
  };

  // A row lists a smaller partner whose row lacks it.
  const std::string smaller = refusal({{2}, {}, {0, 1}});
  EXPECT_TRUE(names(smaller, "1 lacks 2")) << smaller;
  // A row lists a larger partner whose row lacks it: caught when a later
  // row reaches past the missing entry, or at the end of the build.
  const std::string larger = refusal({{1, 2}, {2}, {0, 1}});
  EXPECT_TRUE(names(larger, "1 lacks 0")) << larger;
  const std::string trailing = refusal({{1}, {0, 2}, {}});
  EXPECT_TRUE(names(trailing, "2 lacks 1")) << trailing;

  graph::BallView triangle;
  const std::vector<std::vector<VertexId>> rows{{1, 2}, {0, 2}, {0, 1}};
  triangle.build(3, [&](VertexId la, auto&& emit) {
    for (const VertexId lb : rows[la]) emit(lb);
  });
  EXPECT_EQ(triangle.num_edges(), 3u);
  EXPECT_EQ(triangle.first_above(0), 0u);
  EXPECT_EQ(triangle.first_above(1), 1u);
  EXPECT_EQ(triangle.first_above(2), 2u);
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
