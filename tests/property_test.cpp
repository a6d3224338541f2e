// Parameterized property sweeps across modules: randomized invariants that
// complement the example-based unit tests. All instances are small so the
// whole file stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tgcover/core/certificate.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/cycle/candidates.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/cycle/horton.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/min_circle.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/gf2_elim.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

Graph random_graph(std::size_t n, std::size_t edges, std::uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  std::size_t added = 0;
  std::size_t guard = 0;
  while (added < edges && ++guard < 100 * edges) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (b.add_edge(u, v)) ++added;
  }
  return b.build();
}

// --------------------------------------------------------- GF(2) algebra

TEST(PropertyGf2, RankIsInsertionOrderInvariant) {
  util::Rng rng(301);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dim = 30;
    std::vector<util::Gf2Vector> rows;
    for (int i = 0; i < 20; ++i) {
      util::Gf2Vector v(dim);
      for (std::size_t bit = 0; bit < dim; ++bit) {
        if (rng.bernoulli(0.25)) v.set(bit);
      }
      rows.push_back(std::move(v));
    }
    util::Gf2Eliminator forward(dim);
    for (const auto& r : rows) forward.insert(r);
    auto shuffled = rows;
    rng.shuffle(shuffled);
    util::Gf2Eliminator backward(dim);
    for (const auto& r : shuffled) backward.insert(r);
    EXPECT_EQ(forward.rank(), backward.rank()) << "trial " << trial;
  }
}

TEST(PropertyGf2, SpanIsClosedUnderXor) {
  util::Rng rng(302);
  const std::size_t dim = 24;
  util::Gf2Eliminator elim(dim);
  std::vector<util::Gf2Vector> gens;
  for (int i = 0; i < 8; ++i) {
    util::Gf2Vector v(dim);
    for (std::size_t bit = 0; bit < dim; ++bit) {
      if (rng.bernoulli(0.3)) v.set(bit);
    }
    gens.push_back(v);
    elim.insert(std::move(v));
  }
  for (int trial = 0; trial < 50; ++trial) {
    util::Gf2Vector combo(dim);
    for (const auto& g : gens) {
      if (rng.bernoulli(0.5)) combo.xor_assign(g);
    }
    EXPECT_TRUE(elim.in_span(combo));
  }
}

// -------------------------------------------------------------- cycles

class CycleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CycleSweep, McbSumsStayInCycleSpace) {
  const Graph g = random_graph(12, 24, GetParam());
  const auto mcb = cycle::minimum_cycle_basis(g);
  util::Rng rng(GetParam() ^ 0xabc);
  for (int trial = 0; trial < 10; ++trial) {
    util::Gf2Vector sum(g.num_edges());
    for (const auto& c : mcb.cycles) {
      if (rng.bernoulli(0.5)) sum.xor_assign(c.edges());
    }
    EXPECT_TRUE(cycle::is_cycle_space_element(g, sum));
  }
}

TEST_P(CycleSweep, EveryCandidateIsASimpleCycle) {
  const Graph g = random_graph(10, 20, GetParam());
  for (const auto& cand : cycle::fundamental_cycle_candidates(g)) {
    EXPECT_TRUE(cycle::is_simple_cycle(g, cand.edges));
    EXPECT_EQ(cand.edges.popcount(), cand.length);
  }
}

TEST_P(CycleSweep, SpanMonotoneInTau) {
  const Graph g = random_graph(12, 26, GetParam());
  bool prev = false;
  for (std::uint32_t tau = 3; tau <= 12; ++tau) {
    const bool now = cycle::short_cycles_span(g, tau);
    EXPECT_TRUE(!prev || now) << "span lost when raising tau to " << tau;
    prev = now;
  }
  // At τ = |E| the whole cycle space is trivially spanned.
  EXPECT_TRUE(cycle::short_cycles_span(
      g, static_cast<std::uint32_t>(std::max<std::size_t>(3, g.num_edges()))));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// --------------------------------------------------------------- geometry

TEST(PropertyGeom, WelzlMatchesBruteForceOnTinySets) {
  util::Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<geom::Point> pts;
    const int n = 2 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-3, 3), rng.uniform(-3, 3)});
    }
    const geom::Circle fast = geom::min_enclosing_circle(pts);

    // Brute force: the optimum is determined by 2 or 3 points.
    double best = 1e18;
    auto consider = [&](const geom::Circle& c) {
      for (const auto& p : pts) {
        if (!c.contains(p, 1e-9)) return;
      }
      best = std::min(best, c.radius);
    };
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        consider(geom::Circle{{(pts[i].x + pts[j].x) / 2,
                               (pts[i].y + pts[j].y) / 2},
                              geom::dist(pts[i], pts[j]) / 2});
        for (std::size_t k = j + 1; k < pts.size(); ++k) {
          // Circumcircle via perpendicular bisectors.
          const double ax = pts[j].x - pts[i].x;
          const double ay = pts[j].y - pts[i].y;
          const double bx = pts[k].x - pts[i].x;
          const double by = pts[k].y - pts[i].y;
          const double d = 2.0 * (ax * by - ay * bx);
          if (std::abs(d) < 1e-12) continue;
          const double ux =
              (by * (ax * ax + ay * ay) - ay * (bx * bx + by * by)) / d;
          const double uy =
              (ax * (bx * bx + by * by) - bx * (ax * ax + ay * ay)) / d;
          const geom::Point c{pts[i].x + ux, pts[i].y + uy};
          consider(geom::Circle{c, geom::dist(c, pts[i])});
        }
      }
    }
    if (pts.size() == 1) best = 0.0;
    EXPECT_NEAR(fast.radius, best, 1e-6) << "trial " << trial;
  }
}

// ------------------------------------------------------------------- MIS

class MisSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MisSweep, OracleIndependenceAndMaximality) {
  const unsigned radius = GetParam();
  util::Rng rng(304 + radius);
  const auto dep = gen::random_connected_udg(120, 3.6, 1.0, rng);
  const std::vector<bool> active(120, true);
  std::vector<bool> candidate(120, false);
  for (VertexId v = 0; v < 120; ++v) candidate[v] = rng.bernoulli(0.5);
  const auto selected =
      sim::elect_mis_oracle(dep.graph, active, candidate, radius, 12345);

  const Graph& g = dep.graph;
  auto within = [&](VertexId a, VertexId b) {
    const auto dist = graph::bfs_distances(g, a, radius);
    return dist[b] != graph::kUnreached;
  };
  for (VertexId a = 0; a < 120; ++a) {
    if (!selected[a]) continue;
    for (VertexId b = static_cast<VertexId>(a + 1); b < 120; ++b) {
      if (selected[b]) {
        EXPECT_FALSE(within(a, b)) << a << " and " << b;
      }
    }
  }
  for (VertexId c = 0; c < 120; ++c) {
    if (!candidate[c] || selected[c]) continue;
    bool dominated = false;
    for (VertexId s = 0; s < 120 && !dominated; ++s) {
      if (selected[s] && within(c, s)) dominated = true;
    }
    EXPECT_TRUE(dominated) << "candidate " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, MisSweep, ::testing::Values(1u, 2u, 3u, 4u));

// --------------------------------------------------------------- scheduler

/// Writes the schedule's cycle partition (`core::find_partition`) in the
/// `verify --certificate` line format and requires `core::check_certificate`,
/// which shares no code with the GF(2) kernel, to accept it (Theorem 5).
void expect_certified(const core::Network& net, const std::vector<bool>& active,
                      unsigned tau) {
  const Graph& g = net.dep.graph;
  const auto parts = core::find_partition(g, active, net.cb, tau);
  ASSERT_TRUE(parts.has_value()) << "no cycle partition at tau=" << tau;
  std::stringstream cert;
  cert << "# cycle partition certificate: boundary = XOR of " << parts->size()
       << " cycles, each of length <= " << tau << "\n";
  for (const cycle::Cycle& c : *parts) {
    cert << "cycle";
    for (const VertexId v : cycle::cycle_vertices(g, c.edges())) {
      cert << ' ' << v;
    }
    cert << "\n";
  }
  std::vector<bool> cb_edges(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) cb_edges[e] = net.cb.test(e);
  const core::CertificateVerdict verdict =
      core::check_certificate(g, active, cb_edges, tau, cert);
  EXPECT_TRUE(verdict.ok) << "line " << verdict.line << ": " << verdict.error;
}

class TheoremFiveSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(TheoremFiveSweep, CriterionPreservedWheneverItHeld) {
  const auto [tau, seed] = GetParam();
  util::Rng rng(seed);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(160, 4.0, 1.0, rng), 1.0);
  const std::vector<bool> all(net.dep.graph.num_vertices(), true);
  if (!core::criterion_holds(net.dep.graph, all, net.cb, tau)) {
    GTEST_SKIP() << "instance does not certify at tau=" << tau;
  }
  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  const auto s = core::run_dcc(net, config);
  EXPECT_TRUE(
      core::criterion_holds(net.dep.graph, s.result.active, net.cb, tau));
  expect_certified(net, s.result.active, tau);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, TheoremFiveSweep,
    ::testing::Combine(::testing::Values(3u, 4u, 5u),
                       ::testing::Values(1001u, 1002u, 1003u)));

class DistributedSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DistributedSweep, OracleEquivalence) {
  const unsigned tau = GetParam();
  util::Rng rng(305 + tau);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(90, 3.2, 1.0, rng), 1.0);
  core::DccConfig config;
  config.tau = tau;
  config.seed = 77 + tau;
  const auto oracle = core::dcc_schedule(net.dep.graph, net.internal, config);
  const auto dist =
      core::dcc_schedule_distributed(net.dep.graph, net.internal, config);
  EXPECT_EQ(dist.schedule.active, oracle.active);
  const std::vector<bool> all(net.dep.graph.num_vertices(), true);
  if (core::criterion_holds(net.dep.graph, all, net.cb, tau)) {
    expect_certified(net, dist.schedule.active, tau);
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, DistributedSweep,
                         ::testing::Values(3u, 4u, 5u));

// ------------------------------------------------------------- simulation

TEST(PropertySim, KHopViewsConsistentAfterDeactivations) {
  util::Rng rng(306);
  const auto dep = gen::random_connected_udg(70, 2.8, 1.0, rng);
  sim::RoundEngine engine(dep.graph);
  // Deactivate a few nodes up front; views must reflect the active topology.
  for (const VertexId v : {3u, 10u, 42u}) engine.deactivate(v);
  const auto views = sim::collect_k_hop_views(engine, 2);

  const Graph active_graph = graph::filter_active(dep.graph, engine.active());
  for (VertexId v = 0; v < 70; ++v) {
    if (!engine.is_active(v)) {
      EXPECT_TRUE(views[v].index.empty());
      continue;
    }
    const auto dist = graph::bfs_distances(active_graph, v, 2);
    for (VertexId u = 0; u < 70; ++u) {
      const bool expect_known =
          dist[u] != graph::kUnreached && engine.is_active(u);
      EXPECT_EQ(views[v].knows(u), expect_known)
          << "owner " << v << " node " << u;
    }
  }
}

}  // namespace
}  // namespace tgc
