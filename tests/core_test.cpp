#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "tgcover/boundary/cycle_extract.hpp"
#include "tgcover/boundary/label.hpp"
#include "tgcover/core/confine.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/horton.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/gen/fixtures.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

#include "reference_replay.hpp"

namespace tgc::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

Graph grid_graph(std::size_t w, std::size_t h) {
  GraphBuilder b(w * h);
  auto id = [&](std::size_t x, std::size_t y) {
    return static_cast<VertexId>(y * w + x);
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) b.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) b.add_edge(id(x, y), id(x, y + 1));
    }
  }
  return b.build();
}

/// Outer perimeter cycle of a w×h grid (counter-clockwise walk).
util::Gf2Vector grid_boundary(const Graph& g, std::size_t w, std::size_t h) {
  auto id = [&](std::size_t x, std::size_t y) {
    return static_cast<VertexId>(y * w + x);
  };
  std::vector<VertexId> walk;
  for (std::size_t x = 0; x < w - 1; ++x) walk.push_back(id(x, 0));
  for (std::size_t y = 0; y < h - 1; ++y) walk.push_back(id(w - 1, y));
  for (std::size_t x = w - 1; x > 0; --x) walk.push_back(id(x, h - 1));
  for (std::size_t y = h - 1; y > 0; --y) walk.push_back(id(0, y));
  return cycle::Cycle::from_vertex_sequence(g, walk).edges();
}

// ----------------------------------------------------------------- confine

TEST(Confine, BlanketThresholds) {
  EXPECT_NEAR(blanket_gamma_threshold(3), std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(blanket_gamma_threshold(4), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(blanket_gamma_threshold(6), 1.0, 1e-12);
  // Monotone decreasing in τ.
  for (unsigned tau = 3; tau < 12; ++tau) {
    EXPECT_GT(blanket_gamma_threshold(tau), blanket_gamma_threshold(tau + 1));
  }
}

TEST(Confine, BlanketGuaranteed) {
  EXPECT_TRUE(blanket_guaranteed(3, 1.7));
  EXPECT_FALSE(blanket_guaranteed(3, 1.8));
  EXPECT_TRUE(blanket_guaranteed(6, 1.0));
  EXPECT_FALSE(blanket_guaranteed(6, 1.01));
}

TEST(Confine, PaperBound) {
  EXPECT_DOUBLE_EQ(paper_hole_diameter_bound(4, 2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(paper_hole_diameter_bound(3, 2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(paper_hole_diameter_bound(3, 1.7, 1.0), 0.0);  // blanket
  EXPECT_TRUE(std::isinf(paper_hole_diameter_bound(3, 2.5, 1.0)));
}

TEST(Confine, RefinedBoundTighterThanPaper) {
  for (unsigned tau = 3; tau <= 9; ++tau) {
    for (double gamma = 1.0; gamma <= 2.0; gamma += 0.1) {
      EXPECT_LE(refined_hole_diameter_bound(tau, gamma, 1.0),
                paper_hole_diameter_bound(tau, gamma, 1.0) + 1e-12)
          << "tau " << tau << " gamma " << gamma;
    }
  }
}

TEST(Confine, MaxAdmissibleTauBlanketOnly) {
  // Full coverage requirement: τ rises as γ shrinks.
  EXPECT_EQ(max_admissible_tau(1.7, 0.0, 1.0, 12).tau, 3u);
  EXPECT_EQ(max_admissible_tau(1.4, 0.0, 1.0, 12).tau, 4u);
  EXPECT_EQ(max_admissible_tau(1.0, 0.0, 1.0, 12).tau, 6u);
  EXPECT_EQ(max_admissible_tau(0.5, 0.0, 1.0, 12).tau, 12u);  // capped
  // γ beyond √3: no τ guarantees blanket; fallback is best-effort τ=3.
  const TauChoice none = max_admissible_tau(2.0, 0.0, 1.0, 12);
  EXPECT_EQ(none.tau, 3u);
  EXPECT_FALSE(none.guaranteed);
}

TEST(Confine, MaxAdmissibleTauPartial) {
  // Allowing Dmax = 2·Rc admits τ=4 via the partial branch at any γ ≤ 2.
  const TauChoice c = max_admissible_tau(2.0, 2.0, 1.0, 12);
  EXPECT_EQ(c.tau, 4u);
  EXPECT_TRUE(c.guaranteed);
  EXPECT_FALSE(c.blanket);
  // The blanket branch can beat the partial branch at small γ.
  EXPECT_EQ(max_admissible_tau(1.0, 2.0, 1.0, 12).tau, 6u);
}

// --------------------------------------------------------------------- VPT

TEST(Vpt, WheelHubNeedsTauSix) {
  // Hub + plain 6-cycle rim: the punctured neighbourhood is C6.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 6; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v == 6 ? 1 : v + 1);
  }
  const Graph g = b.build();
  const std::vector<bool> active(7, true);
  EXPECT_FALSE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 0}));
  EXPECT_FALSE(vpt_vertex_deletable(g, active, 0, VptConfig{5, 0}));
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 0, VptConfig{6, 0}));
}

TEST(Vpt, ChordedWheelHubDeletableAtThree) {
  // Rim C6 plus chords (1,3),(3,5),(5,1): the rim region is triangulated, so
  // the hub is redundant even at τ=3.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 6; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v == 6 ? 1 : v + 1);
  }
  b.add_edge(1, 3);
  b.add_edge(3, 5);
  b.add_edge(5, 1);
  const Graph g = b.build();
  const std::vector<bool> active(7, true);
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 0}));
}

TEST(Vpt, GridCenterThresholds) {
  const Graph g = grid_graph(5, 5);
  const std::vector<bool> active(25, true);
  const VertexId center = 12;
  // Removing the center leaves an 8-cycle void.
  EXPECT_FALSE(vpt_vertex_deletable(g, active, center, VptConfig{4, 0}));
  EXPECT_FALSE(vpt_vertex_deletable(g, active, center, VptConfig{6, 0}));
  EXPECT_TRUE(vpt_vertex_deletable(g, active, center, VptConfig{8, 0}));
}

TEST(Vpt, DisconnectedNeighbourhoodBlocksDeletion) {
  // A path's middle vertex: punctured neighbourhood = two isolated vertices.
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  const std::vector<bool> active(3, true);
  EXPECT_FALSE(vpt_vertex_deletable(g, active, 1, VptConfig{3, 0}));
}

TEST(Vpt, LeafAndIsolatedDeletable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  // 3 isolated.
  const Graph g = b.build();
  const std::vector<bool> active(4, true);
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 0}));  // leaf
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 3, VptConfig{3, 0}));  // isolated
}

TEST(Vpt, RespectsActiveMask) {
  // Plain wheel: with everyone active the hub is not deletable at τ=3
  // (punctured neighbourhood = C6). Deactivating a rim node breaks the rim
  // into a path — a tree has no irreducible cycles, so the verdict flips.
  // The mask must actually reach the punctured-neighbourhood construction.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 6; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v == 6 ? 1 : v + 1);
  }
  const Graph g = b.build();
  std::vector<bool> active(7, true);
  EXPECT_FALSE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 0}));
  active[2] = false;
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 0}));
}

TEST(Vpt, KParameterWidensNeighbourhood) {
  // Larger k can only *restrict* deletions further for the same τ if the
  // wider neighbourhood contains large voids; on a clean triangulated patch
  // it stays deletable.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 6; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v == 6 ? 1 : v + 1);
  }
  b.add_edge(1, 3);
  b.add_edge(3, 5);
  b.add_edge(5, 1);
  const Graph g = b.build();
  const std::vector<bool> active(7, true);
  EXPECT_TRUE(vpt_vertex_deletable(g, active, 0, VptConfig{3, 3}));
}

TEST(Vpt, EdgeDeletion) {
  // K4: any edge is deletable at τ=3 — the punctured neighbourhood is still
  // triangulated by the remaining four faces minus the two using the edge.
  GraphBuilder k4(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) k4.add_edge(u, v);
  }
  const Graph g1 = k4.build();
  const std::vector<bool> active4(4, true);
  const std::vector<bool> links1(g1.num_edges(), true);
  const graph::EdgeId e01 = *g1.edge_between(0, 1);
  EXPECT_TRUE(vpt_edge_deletable(g1, active4, links1, e01, VptConfig{3, 0}));
  // With link (2,3) pruned, the punctured neighbourhood is the 4-cycle
  // 0-2-1-3: deletable from τ=4 on.
  std::vector<bool> pruned1 = links1;
  pruned1[*g1.edge_between(2, 3)] = false;
  EXPECT_FALSE(vpt_edge_deletable(g1, active4, pruned1, e01, VptConfig{3, 0}));
  EXPECT_TRUE(vpt_edge_deletable(g1, active4, pruned1, e01, VptConfig{4, 0}));

  // 3×2 grid: removing the middle rung merges the two squares into a 6-cycle
  // void, so the rung is deletable at τ=6 but not below.
  GraphBuilder grid(6);
  grid.add_edge(0, 1);
  grid.add_edge(1, 2);
  grid.add_edge(3, 4);
  grid.add_edge(4, 5);
  grid.add_edge(0, 3);
  grid.add_edge(1, 4);
  grid.add_edge(2, 5);
  const Graph g2 = grid.build();
  const std::vector<bool> active6(6, true);
  const std::vector<bool> links2(g2.num_edges(), true);
  const graph::EdgeId rung = *g2.edge_between(1, 4);
  EXPECT_FALSE(vpt_edge_deletable(g2, active6, links2, rung, VptConfig{4, 0}));
  EXPECT_FALSE(vpt_edge_deletable(g2, active6, links2, rung, VptConfig{5, 0}));
  EXPECT_TRUE(vpt_edge_deletable(g2, active6, links2, rung, VptConfig{6, 0}));
  // With the left rung pruned the punctured neighbourhood is a path, so the
  // middle rung goes at τ=4 too.
  std::vector<bool> pruned2 = links2;
  pruned2[*g2.edge_between(0, 3)] = false;
  EXPECT_TRUE(vpt_edge_deletable(g2, active6, pruned2, rung, VptConfig{4, 0}));

  // K4 plus node 4 hanging off node 2: pruning link (2,4) takes node 4 out of
  // the ball rather than leaving it isolated in it.
  GraphBuilder pendant(5);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) pendant.add_edge(u, v);
  }
  pendant.add_edge(2, 4);
  const Graph g3 = pendant.build();
  const std::vector<bool> active5(5, true);
  std::vector<bool> pruned3(g3.num_edges(), true);
  pruned3[*g3.edge_between(2, 4)] = false;
  EXPECT_TRUE(vpt_edge_deletable(g3, active5, pruned3, *g3.edge_between(0, 1),
                                 VptConfig{3, 0}));
}

/// The τ-span kernel work (`horton_candidates`, `gf2_pivots`) `fn` adds.
template <typename Fn>
std::pair<std::uint64_t, std::uint64_t> kernel_work(Fn&& fn) {
  const obs::Metrics before = obs::snapshot();
  fn();
  const obs::Metrics delta = obs::snapshot() - before;
  return {delta.get(obs::CounterId::kHortonCandidates),
          delta.get(obs::CounterId::kGf2Pivots)};
}

// Fresh views, then views after oracle deletion waves in which every node
// within k hops of a deleted node (the deletion flood's reach) erases it
// from its view: the local test skips erased mentions through the view's
// index alone.
TEST(Vpt, LocalViewMatchesOracle) {
  // Both calls build the same punctured ball, so besides the verdict they
  // must run the same candidate stream and the same pivot steps: a view
  // index that misses a record can still give the right verdict.
  obs::set_enabled(true);
  std::uint64_t candidates = 0;
  util::Rng rng(31);
  const auto dep = gen::random_connected_udg(120, 4.4, 1.0, rng);
  const Graph& g = dep.graph;
  std::vector<bool> internal(120);
  for (VertexId v = 0; v < 120; ++v) {
    internal[v] = dep.area.interior_clearance(dep.positions[v]) > 0.5;
  }
  graph::BoundedBfs reach;
  for (const unsigned tau : {3u, 4u, 5u, 6u}) {
    const VptConfig config{tau, 0};
    const unsigned k = config.effective_k();
    sim::RoundEngine engine(g);
    auto views = sim::collect_k_hop_views(engine, k);
    std::vector<bool> active(120, true);
    std::size_t deleted = 0;
    for (std::uint64_t wave = 0; wave <= 5; ++wave) {
      std::vector<bool> candidate(120, false);
      for (VertexId v = 0; v < 120; ++v) {
        if (!active[v]) continue;
        bool local = false;
        bool oracle = false;
        const auto local_work = kernel_work(
            [&] { local = vpt_vertex_deletable_local(views[v], config); });
        const auto oracle_work = kernel_work(
            [&] { oracle = vpt_vertex_deletable(g, active, v, config); });
        EXPECT_EQ(local, oracle)
            << "vertex " << v << " tau " << tau << " after wave " << wave;
        EXPECT_EQ(local_work, oracle_work)
            << "(candidates, pivots) of vertex " << v << " tau " << tau
            << " after wave " << wave;
        candidates += oracle_work.first;
        candidate[v] = internal[v] && local;
      }
      if (wave == 5) break;
      const std::vector<bool> selected = sim::elect_mis_oracle(
          g, active, candidate, config.mis_radius(), 500 + wave);
      for (VertexId s = 0; s < 120; ++s) {
        if (!selected[s]) continue;
        reach.run(g, std::span(&s, 1), k,
                  [&](VertexId w, graph::EdgeId) { return active[w]; });
        for (const VertexId w : reach.reached()) views[w].erase_node(s);
      }
      for (VertexId s = 0; s < 120; ++s) {
        if (!selected[s]) continue;
        active[s] = false;
        ++deleted;
      }
    }
    EXPECT_GE(deleted, 10u) << "tau " << tau;
  }
  obs::set_enabled(false);
  EXPECT_GT(candidates, 0u);  // the counters were live
}

// --------------------------------------------------------------- criterion

TEST(Criterion, GridBoundaryPartitionable) {
  const Graph g = grid_graph(5, 5);
  const auto cb = grid_boundary(g, 5, 5);
  const std::vector<bool> active(25, true);
  EXPECT_FALSE(criterion_holds(g, active, cb, 3));  // no triangles at all
  EXPECT_TRUE(criterion_holds(g, active, cb, 4));   // unit squares
}

TEST(Criterion, FindPartitionReturnsValidCertificate) {
  const Graph g = grid_graph(4, 4);
  const auto cb = grid_boundary(g, 4, 4);
  const std::vector<bool> active(16, true);
  const auto parts = find_partition(g, active, cb, 4);
  ASSERT_TRUE(parts.has_value());
  util::Gf2Vector sum(g.num_edges());
  for (const cycle::Cycle& c : *parts) {
    EXPECT_LE(c.length(), 4u);
    sum.xor_assign(c.edges());
  }
  EXPECT_TRUE(sum == cb);
}

TEST(Criterion, FindPartitionFailsBelowThreshold) {
  const Graph g = grid_graph(4, 4);
  const auto cb = grid_boundary(g, 4, 4);
  const std::vector<bool> active(16, true);
  EXPECT_FALSE(find_partition(g, active, cb, 3).has_value());
}

TEST(Criterion, RemapEdgeVector) {
  const Graph g = grid_graph(3, 3);
  std::vector<bool> active(9, true);
  active[4] = false;  // drop the center
  const Graph f = graph::filter_active(g, active);
  const auto cb = grid_boundary(g, 3, 3);
  const auto mapped = remap_edge_vector(g, cb, f);
  EXPECT_EQ(mapped.popcount(), cb.popcount());
  mapped.for_each_set_bit([&](std::size_t e) {
    const auto [u, v] = f.edge(static_cast<graph::EdgeId>(e));
    EXPECT_TRUE(g.has_edge(u, v));
  });
}

TEST(Criterion, MobiusOuterBoundaryThreePartitionable) {
  // Proposition 2 applied to Fig. 1: the cycle-partition criterion certifies
  // the Möbius network at τ=3.
  const auto fx = gen::mobius_band();
  const auto outer =
      cycle::Cycle::from_vertex_sequence(fx.graph, fx.outer_cycle);
  const std::vector<bool> active(fx.graph.num_vertices(), true);
  EXPECT_TRUE(criterion_holds(fx.graph, active, outer.edges(), 3));
}

TEST(Criterion, DeletingBoundarySupportBreaksIt) {
  // 3x3 grid: deleting the center keeps the boundary 4-partitionable?
  // No — the four unit squares all use the center, leaving only the outer
  // 8-cycle, so τ=4 fails and τ=8 passes.
  const Graph g = grid_graph(3, 3);
  const auto cb = grid_boundary(g, 3, 3);
  std::vector<bool> active(9, true);
  EXPECT_TRUE(criterion_holds(g, active, cb, 4));
  active[4] = false;
  EXPECT_FALSE(criterion_holds(g, active, cb, 4));
  EXPECT_TRUE(criterion_holds(g, active, cb, 8));
}

// --------------------------------------------------------------- scheduler

class SchedulerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(41);
    dep_ = gen::random_connected_udg(220, 6.3, 1.0, rng);
    internal_.assign(dep_.graph.num_vertices(), false);
    const auto boundary =
        boundary::label_outer_band(dep_.positions, dep_.area, 1.0);
    for (VertexId v = 0; v < dep_.graph.num_vertices(); ++v) {
      internal_[v] = !boundary[v];
    }
    cb_ = boundary::outer_boundary_cycle(dep_.graph, dep_.positions, boundary);
  }

  gen::Deployment dep_;
  std::vector<bool> internal_;
  util::Gf2Vector cb_;
};

TEST_F(SchedulerFixture, TheoremFivePartitionabilityPreserved) {
  for (const unsigned tau : {3u, 4u, 5u, 6u}) {
    const std::vector<bool> all(dep_.graph.num_vertices(), true);
    if (!criterion_holds(dep_.graph, all, cb_, tau)) {
      continue;  // initial network does not certify at this τ
    }
    DccConfig config;
    config.tau = tau;
    config.seed = 7;
    const DccResult result = dcc_schedule(dep_.graph, internal_, config);
    EXPECT_TRUE(criterion_holds(dep_.graph, result.active, cb_, tau))
        << "tau " << tau;
    EXPECT_EQ(result.survivors + result.deleted, dep_.graph.num_vertices());
    EXPECT_GT(result.deleted, 0u) << "tau " << tau;
    // Boundary nodes never deleted.
    for (VertexId v = 0; v < dep_.graph.num_vertices(); ++v) {
      if (!internal_[v]) {
        EXPECT_TRUE(result.active[v]);
      }
    }
  }
}

TEST_F(SchedulerFixture, LargerTauDeletesAtLeastRoughlyAsMuch) {
  DccConfig c3;
  c3.tau = 3;
  c3.seed = 5;
  DccConfig c6;
  c6.tau = 6;
  c6.seed = 5;
  const DccResult r3 = dcc_schedule(dep_.graph, internal_, c3);
  const DccResult r6 = dcc_schedule(dep_.graph, internal_, c6);
  // τ=6 admits every τ=3 deletion opportunity and more; allow a small
  // scheduling-noise margin.
  EXPECT_LE(r6.survivors, r3.survivors + 5);
}

TEST_F(SchedulerFixture, DeterministicForSeed) {
  DccConfig config;
  config.tau = 4;
  config.seed = 99;
  const DccResult a = dcc_schedule(dep_.graph, internal_, config);
  const DccResult b = dcc_schedule(dep_.graph, internal_, config);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST_F(SchedulerFixture, VerdictCacheDoesNotChangeResult) {
  DccConfig config;
  config.tau = 4;
  config.seed = 3;
  const DccResult a = dcc_schedule(dep_.graph, internal_, config);
  const reference::Replay b =
      reference::replay_dcc(dep_.graph, internal_, config);
  EXPECT_EQ(a.active, b.active);
  EXPECT_LT(a.vpt_tests, b.vpt_tests);  // the cache must actually save work
}

TEST(Scheduler, ParallelScheduleBitIdenticalToSerial) {
  // The Step-1 verdict fan-out reads only the pre-round active snapshot, so
  // every thread count must produce the exact same schedule — active mask,
  // round trace, deletion counts, and VPT-test tally included.
  const unsigned hw = util::ThreadPool::resolve_num_threads(0);
  for (const std::uint64_t instance : {0ull, 1ull, 2ull}) {
    util::Rng rng(500 + instance);
    const gen::Deployment dep = gen::random_connected_udg(160, 5.4, 1.0, rng);
    const auto boundary =
        boundary::label_outer_band(dep.positions, dep.area, 1.0);
    std::vector<bool> internal(dep.graph.num_vertices());
    for (VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
      internal[v] = !boundary[v];
    }

    DccConfig config;
    config.tau = 4;
    config.seed = 77 + instance;
    config.num_threads = 1;
    const DccResult serial = dcc_schedule(dep.graph, internal, config);
    EXPECT_GT(serial.deleted, 0u) << "instance " << instance;

    for (const unsigned threads : {2u, hw == 1 ? 3u : hw}) {
      config.num_threads = threads;
      const DccResult parallel = dcc_schedule(dep.graph, internal, config);
      EXPECT_EQ(parallel.active, serial.active)
          << "instance " << instance << " threads " << threads;
      EXPECT_EQ(parallel.rounds, serial.rounds);
      EXPECT_EQ(parallel.deleted, serial.deleted);
      EXPECT_EQ(parallel.survivors, serial.survivors);
      EXPECT_EQ(parallel.vpt_tests, serial.vpt_tests);
      ASSERT_EQ(parallel.per_round.size(), serial.per_round.size());
      for (std::size_t r = 0; r < serial.per_round.size(); ++r) {
        EXPECT_EQ(parallel.per_round[r].candidates,
                  serial.per_round[r].candidates);
        EXPECT_EQ(parallel.per_round[r].deleted, serial.per_round[r].deleted);
      }
    }
  }
}

TEST_F(SchedulerFixture, FixpointNoFurtherCandidates) {
  DccConfig config;
  config.tau = 4;
  config.seed = 11;
  const DccResult result = dcc_schedule(dep_.graph, internal_, config);
  // At the fixpoint no active internal node passes the VPT test.
  for (VertexId v = 0; v < dep_.graph.num_vertices(); ++v) {
    if (!result.active[v] || !internal_[v]) continue;
    EXPECT_FALSE(
        vpt_vertex_deletable(dep_.graph, result.active, v, config.vpt()))
        << "vertex " << v;
  }
}

TEST(Scheduler, TheoremSixNonRedundancy) {
  // When the maximum irreducible cycle of G is ≤ τ, the found set is
  // non-redundant (Definition 6).
  util::Rng rng(43);
  const auto dep = gen::random_connected_udg(90, 2.6, 1.0, rng);
  const auto bounds = cycle::irreducible_cycle_bounds(dep.graph);
  ASSERT_GT(bounds.cycle_space_dim, 0u);
  const auto tau = static_cast<unsigned>(std::max<std::size_t>(3, bounds.max_size));
  if (tau > 8) GTEST_SKIP() << "sparse instance, max irreducible " << tau;

  const auto boundary_set =
      boundary::label_outer_band(dep.positions, dep.area, 1.0);
  std::vector<bool> internal(dep.graph.num_vertices(), false);
  for (VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
    internal[v] = !boundary_set[v];
  }
  const auto cb =
      boundary::outer_boundary_cycle(dep.graph, dep.positions, boundary_set);

  DccConfig config;
  config.tau = tau;
  config.seed = 17;
  const DccResult result = dcc_schedule(dep.graph, internal, config);
  const NonRedundancyReport report =
      check_non_redundancy(dep.graph, result.active, internal, cb, tau);
  ASSERT_TRUE(report.criterion_holds);
  EXPECT_TRUE(report.non_redundant)
      << report.redundant_nodes.size() << " redundant nodes remain";
}

// -------------------------------------------------------------- distributed

TEST(Distributed, MatchesOracleSchedule) {
  util::Rng rng(47);
  for (int trial = 0; trial < 3; ++trial) {
    util::Rng r = rng.fork(trial);
    const auto dep = gen::random_connected_udg(130, 4.0, 1.0, r);
    const auto boundary_set =
        boundary::label_outer_band(dep.positions, dep.area, 1.0);
    std::vector<bool> internal(dep.graph.num_vertices(), false);
    for (VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
      internal[v] = !boundary_set[v];
    }
    for (const unsigned tau : {3u, 4u}) {
      DccConfig config;
      config.tau = tau;
      config.seed = 1234 + trial;
      const DccResult oracle = dcc_schedule(dep.graph, internal, config);
      const DccDistributedResult dist =
          dcc_schedule_distributed(dep.graph, internal, config);
      EXPECT_EQ(dist.schedule.active, oracle.active)
          << "trial " << trial << " tau " << tau;
      EXPECT_EQ(dist.schedule.rounds, oracle.rounds);
      EXPECT_GT(dist.traffic.messages, 0u);
      EXPECT_GT(dist.traffic.rounds, 0u);
    }
  }
}

TEST(Distributed, TrafficScalesWithK) {
  util::Rng rng(53);
  const auto dep = gen::random_connected_udg(100, 3.5, 1.0, rng);
  std::vector<bool> internal(dep.graph.num_vertices(), true);
  const auto boundary_set =
      boundary::label_outer_band(dep.positions, dep.area, 1.0);
  for (VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
    internal[v] = !boundary_set[v];
  }
  DccConfig small;
  small.tau = 3;  // k = 2
  DccConfig large;
  large.tau = 7;  // k = 4
  const auto a = dcc_schedule_distributed(dep.graph, internal, small);
  const auto b = dcc_schedule_distributed(dep.graph, internal, large);
  EXPECT_GT(b.traffic.payload_words, a.traffic.payload_words);
}

}  // namespace
}  // namespace tgc::core
