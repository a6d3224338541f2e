// Tests for the extension layer: quality reports, link scheduling with the
// VPT edge operator, and failure repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/edge_scheduler.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/quality.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/gen/fixtures.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/rng.hpp"

#include "reference_replay.hpp"

namespace tgc::core {
namespace {

using graph::EdgeId;
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

// ----------------------------------------------------------------- quality

TEST(Quality, GridReport) {
  const Graph g = grid_graph(5, 5);
  const auto cb = grid_boundary(g, 5, 5);
  const std::vector<bool> all(25, true);
  const QualityReport q = assess_quality(g, all, cb, 12);
  EXPECT_EQ(q.min_void, 4u);
  EXPECT_EQ(q.max_void, 4u);
  EXPECT_EQ(q.certifiable_tau, 4u);
  EXPECT_TRUE(q.certifies(4));
  EXPECT_TRUE(q.certifies(9));
  EXPECT_FALSE(q.certifies(3));
}

TEST(Quality, MobiusReport) {
  const auto fx = gen::mobius_band();
  const auto outer =
      cycle::Cycle::from_vertex_sequence(fx.graph, fx.outer_cycle);
  const std::vector<bool> all(fx.graph.num_vertices(), true);
  const QualityReport q = assess_quality(fx.graph, all, outer.edges(), 8);
  EXPECT_EQ(q.min_void, 3u);
  EXPECT_EQ(q.max_void, 4u);
  // The outer boundary is already 3-partitionable although max_void is 4 —
  // the certificate is about CB, not about every void.
  EXPECT_EQ(q.certifiable_tau, 3u);
}

TEST(Quality, UncertifiableWithinCap) {
  // A plain cycle C12 as its own boundary: only τ ≥ 12 certifies.
  GraphBuilder b(12);
  std::vector<VertexId> seq;
  for (VertexId v = 0; v < 12; ++v) {
    b.add_edge(v, (v + 1) % 12);
    seq.push_back(v);
  }
  const Graph g = b.build();
  const auto cb = cycle::Cycle::from_vertex_sequence(g, seq);
  const std::vector<bool> all(12, true);
  const QualityReport low = assess_quality(g, all, cb.edges(), 8);
  EXPECT_EQ(low.certifiable_tau, 0u);
  EXPECT_FALSE(low.certifies(8));
  const QualityReport high = assess_quality(g, all, cb.edges(), 16);
  EXPECT_EQ(high.certifiable_tau, 12u);
  EXPECT_EQ(high.min_void, 12u);
  EXPECT_EQ(high.max_void, 12u);
}

TEST(Quality, DegradesAfterDeletion) {
  // Removing the 3x3 grid's center grows the voids from 4 to 8 and the
  // certificate follows.
  const Graph g = grid_graph(3, 3);
  const auto cb = grid_boundary(g, 3, 3);
  std::vector<bool> active(9, true);
  const QualityReport before = assess_quality(g, active, cb, 12);
  EXPECT_EQ(before.certifiable_tau, 4u);
  active[4] = false;
  const QualityReport after = assess_quality(g, active, cb, 12);
  EXPECT_EQ(after.certifiable_tau, 8u);
  EXPECT_EQ(after.max_void, 8u);
}

// ------------------------------------------------------------------ edges

TEST(EdgeScheduler, PrunesChordsOfK4) {
  // K4 at τ=3: some diagonals are redundant; the criterion (all-protected
  // empty) and connectivity must survive.
  GraphBuilder b(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.add_edge(u, v);
  }
  const Graph g = b.build();
  const std::vector<bool> nodes(4, true);
  DccConfig config;
  config.tau = 3;
  const EdgeScheduleResult r =
      dcc_schedule_edges(g, nodes, util::Gf2Vector(), config);
  EXPECT_GT(r.pruned, 0u);
  EXPECT_EQ(r.kept + r.pruned, g.num_edges());
  // The pruned topology is still connected.
  GraphBuilder kept(4);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (r.edge_active[e]) {
      const auto [u, v] = g.edge(e);
      kept.add_edge(u, v);
    }
  }
  EXPECT_TRUE(graph::is_connected(kept.build()));
}

TEST(EdgeScheduler, RespectsProtectedEdges) {
  GraphBuilder b(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.add_edge(u, v);
  }
  const Graph g = b.build();
  const std::vector<bool> nodes(4, true);
  util::Gf2Vector protect(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) protect.set(e);
  DccConfig config;
  config.tau = 3;
  const EdgeScheduleResult r = dcc_schedule_edges(g, nodes, protect, config);
  EXPECT_EQ(r.pruned, 0u);
  EXPECT_EQ(r.kept, g.num_edges());
}

TEST(EdgeScheduler, DropsLinksOfSleepingNodes) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const Graph g = b.build();
  std::vector<bool> nodes(3, true);
  nodes[2] = false;
  DccConfig config;
  config.tau = 3;
  const EdgeScheduleResult r =
      dcc_schedule_edges(g, nodes, util::Gf2Vector(), config);
  EXPECT_FALSE(r.edge_active[*g.edge_between(1, 2)]);
  EXPECT_FALSE(r.edge_active[*g.edge_between(0, 2)]);
  EXPECT_TRUE(r.edge_active[*g.edge_between(0, 1)]);
}

TEST(EdgeScheduler, PreservesCriterionOnDeployment) {
  // Small instance: the link-pruning fixpoint runs many rounds (each MIS
  // blocks k-hop regions), so edge scheduling is O(minutes) at 200+ nodes
  // or at high density. Scan seeds for a sparse instance that certifies.
  const unsigned tau = 4;
  Network net;
  bool found = false;
  for (std::uint64_t seed = 71; seed < 71 + 10 && !found; ++seed) {
    util::Rng rng(seed);
    net = prepare_network(gen::random_connected_udg(90, 4.2, 1.0, rng), 1.0);
    const std::vector<bool> everyone(net.dep.graph.num_vertices(), true);
    found = criterion_holds(net.dep.graph, everyone, net.cb, tau);
  }
  if (!found) GTEST_SKIP() << "no certifying instance in seed range";
  const std::vector<bool> all(net.dep.graph.num_vertices(), true);
  DccConfig config;
  config.tau = tau;
  const EdgeScheduleResult r =
      dcc_schedule_edges(net.dep.graph, all, net.cb, config);
  EXPECT_GT(r.pruned, 0u);

  // Criterion on the pruned topology (same vertex set, surviving edges).
  GraphBuilder kept(net.dep.graph.num_vertices());
  for (EdgeId e = 0; e < net.dep.graph.num_edges(); ++e) {
    if (r.edge_active[e]) {
      const auto [u, v] = net.dep.graph.edge(e);
      kept.add_edge(u, v);
    }
  }
  const Graph pruned = kept.build();
  EXPECT_TRUE(graph::is_connected(pruned));
  const util::Gf2Vector cb_pruned =
      remap_edge_vector(net.dep.graph, net.cb, pruned);
  const std::vector<bool> everyone(pruned.num_vertices(), true);
  EXPECT_TRUE(criterion_holds(pruned, everyone, cb_pruned, tau));
}

TEST(EdgeScheduler, CacheDoesNotChangeResult) {
  util::Rng rng(72);
  const auto dep = gen::random_connected_udg(60, 3.9, 1.0, rng);
  const std::vector<bool> nodes(dep.graph.num_vertices(), true);
  DccConfig config;
  config.tau = 4;
  const auto a = dcc_schedule_edges(dep.graph, nodes, util::Gf2Vector(), config);
  EXPECT_GT(a.pruned, 0u);
  EXPECT_EQ(a.edge_active, reference::replay_edges(dep.graph, nodes,
                                                   util::Gf2Vector(), config));
}

// ------------------------------------------------------------------ repair

class RepairFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(73);
    net_ = prepare_network(gen::random_connected_udg(300, 5.5, 1.0, rng), 1.0);
    config_.tau = 4;
    config_.seed = 5;
    const std::vector<bool> all(net_.dep.graph.num_vertices(), true);
    initially_certified_ =
        criterion_holds(net_.dep.graph, all, net_.cb, config_.tau);
    schedule_ = run_dcc(net_, config_);
  }

  Network net_;
  DccConfig config_;
  bool initially_certified_ = false;
  ScheduleSummary schedule_;
};

TEST_F(RepairFixture, RestoresCriterionAfterFailures) {
  if (!initially_certified_) GTEST_SKIP() << "instance does not certify";
  ASSERT_TRUE(criterion_holds(net_.dep.graph, schedule_.result.active, net_.cb,
                              config_.tau));

  // Kill a batch of awake internal nodes.
  std::vector<bool> failed(net_.dep.graph.num_vertices(), false);
  util::Rng rng(74);
  std::size_t kills = 0;
  for (VertexId v = 0; v < net_.dep.graph.num_vertices() && kills < 6; ++v) {
    if (schedule_.result.active[v] && net_.internal[v] && rng.bernoulli(0.3)) {
      failed[v] = true;
      ++kills;
    }
  }
  ASSERT_GT(kills, 0u);

  std::vector<bool> broken = schedule_.result.active;
  for (VertexId v = 0; v < failed.size(); ++v) {
    if (failed[v]) broken[v] = false;
  }

  const RepairResult repair =
      dcc_repair(net_.dep.graph, net_.internal, schedule_.result.active,
                 failed, net_.cb, config_);
  EXPECT_TRUE(repair.criterion_restored);
  // Failed nodes stay dead; previously awake survivors stay awake.
  for (VertexId v = 0; v < failed.size(); ++v) {
    if (failed[v]) {
      EXPECT_FALSE(repair.active[v]);
    }
    if (schedule_.result.active[v] && !failed[v]) {
      EXPECT_TRUE(repair.active[v]);
    }
  }
  // Repair is local: it wakes far fewer nodes than a full restart.
  EXPECT_LT(repair.woken + repair.survivors,
            net_.dep.graph.num_vertices());
}

TEST_F(RepairFixture, CertificateFreeRepairIsSinglePass) {
  std::vector<bool> failed(net_.dep.graph.num_vertices(), false);
  // Kill one awake internal node.
  for (VertexId v = 0; v < net_.dep.graph.num_vertices(); ++v) {
    if (schedule_.result.active[v] && net_.internal[v]) {
      failed[v] = true;
      break;
    }
  }
  const RepairResult repair =
      dcc_repair(net_.dep.graph, net_.internal, schedule_.result.active,
                 failed, util::Gf2Vector(), config_);
  EXPECT_EQ(repair.final_radius, config_.vpt().effective_k());
  EXPECT_FALSE(repair.criterion_restored);  // not evaluated without cb
}

TEST_F(RepairFixture, NoFailuresIsIdentity) {
  const std::vector<bool> failed(net_.dep.graph.num_vertices(), false);
  const RepairResult repair =
      dcc_repair(net_.dep.graph, net_.internal, schedule_.result.active,
                 failed, util::Gf2Vector(), config_);
  EXPECT_EQ(repair.woken, 0u);
  EXPECT_EQ(repair.active, schedule_.result.active);
}

TEST_F(RepairFixture, NoFailuresWithCertificateTerminates) {
  // A non-certifying schedule (one awake internal node forced asleep) and an
  // empty failure mask: waking near-failure sleepers can never help because
  // there are no failures, so repair must give up after one wave instead of
  // doubling the wake radius forever.
  std::vector<bool> broken = schedule_.result.active;
  for (VertexId v = 0; v < broken.size(); ++v) {
    if (broken[v] && net_.internal[v]) {
      broken[v] = false;
      break;
    }
  }
  const std::vector<bool> failed(net_.dep.graph.num_vertices(), false);
  const RepairResult repair = dcc_repair(net_.dep.graph, net_.internal,
                                         broken, failed, net_.cb, config_);
  EXPECT_EQ(repair.woken, 0u);
  EXPECT_EQ(repair.final_radius, config_.vpt().effective_k());
  EXPECT_EQ(repair.active, broken);
}

TEST(RepairEscalation, StopsWhenSomeNodeNoFailureReaches) {
  // The network `tgcover generate --nodes 200 --degree 25 --seed 3` writes,
  // plus one node with no links at the centre of its area. No search from
  // the failures reaches that node, so it must not hold the escalation
  // open: the repair used to double the wake radius up to 2^31, wrap to 0
  // and loop forever.
  util::Rng rng(3);
  gen::Deployment dep = gen::random_connected_udg(
      200, gen::side_for_average_degree(200, 1.0, 25.0), 1.0, rng);
  GraphBuilder b(201);
  for (EdgeId e = 0; e < dep.graph.num_edges(); ++e) {
    const auto [u, v] = dep.graph.edge(e);
    b.add_edge(u, v);
  }
  dep.graph = b.build();
  const geom::Rect area = dep.area;
  const geom::Point centre{0.5 * (area.xmin + area.xmax),
                           0.5 * (area.ymin + area.ymax)};
  dep.positions.push_back(centre);
  const Network net = prepare_network(std::move(dep), 1.0);
  const Graph& g = net.dep.graph;
  DccConfig config;
  config.tau = 4;
  const std::vector<bool> before = run_dcc(net, config).result.active;
  ASSERT_EQ(std::count(before.begin(), before.end(), true), 49);

  // Crash the 12 awake nodes nearest the centre that lie more than 1.3 from
  // the area's border.
  std::vector<std::pair<double, VertexId>> order;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const geom::Point& p = net.dep.positions[v];
    const double border = std::min({p.x - area.xmin, p.y - area.ymin,
                                    area.xmax - p.x, area.ymax - p.y});
    if (before[v] && border > 1.3) {
      order.emplace_back(geom::dist2(p, centre), v);
    }
  }
  std::sort(order.begin(), order.end());
  ASSERT_GE(order.size(), 12u);
  std::vector<bool> failed(g.num_vertices(), false);
  for (std::size_t i = 0; i < 12; ++i) failed[order[i].second] = true;

  const RepairResult repair =
      dcc_repair(g, net.internal, before, failed, net.cb, config);
  EXPECT_FALSE(repair.criterion_restored);
  EXPECT_LE(repair.final_radius, 8u);
  EXPECT_FALSE(repair.active[200]);
}

// A crashed or sleeping boundary-cycle node takes a CB edge out of the awake
// subgraph. That is an uncertified schedule, not a precondition failure: the
// certificate functions answer "no" and repair gives up after one wave.
class SeveredBoundaryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // The network `tgcover generate --nodes 150 --seed 7` writes.
    util::Rng rng(7);
    net_ = prepare_network(
        gen::random_connected_udg(
            150, gen::side_for_average_degree(150, 1.0, 25.0), 1.0, rng),
        1.0);
    config_.tau = 4;
    schedule_ = run_dcc(net_, config_);
    // Pick an awake node carrying a CB edge (node 0 and edge (0,93) on this
    // network).
    net_.cb.for_each_set_bit([&](std::size_t e) {
      const auto [u, v] = net_.dep.graph.edge(static_cast<graph::EdgeId>(e));
      if (!cut_.has_value() && schedule_.result.active[u]) cut_ = u;
    });
    ASSERT_TRUE(cut_.has_value());
  }

  Network net_;
  DccConfig config_;
  ScheduleSummary schedule_;
  std::optional<VertexId> cut_;
};

TEST_F(SeveredBoundaryFixture, CertificatesReportNoneInsteadOfThrowing) {
  std::vector<bool> asleep = schedule_.result.active;
  asleep[*cut_] = false;
  const Graph& g = net_.dep.graph;
  EXPECT_FALSE(criterion_holds(g, asleep, net_.cb, 4));
  EXPECT_FALSE(find_partition(g, asleep, net_.cb, 4).has_value());
  EXPECT_EQ(smallest_certifiable_tau(g, asleep, net_.cb, 16), 0u);
  EXPECT_EQ(assess_quality(g, asleep, net_.cb, 16).certifiable_tau, 0u);
}

TEST_F(SeveredBoundaryFixture, RepairStopsAfterOneWave) {
  std::vector<bool> failed(net_.dep.graph.num_vertices(), false);
  failed[*cut_] = true;
  const RepairResult repair =
      dcc_repair(net_.dep.graph, net_.internal, schedule_.result.active,
                 failed, net_.cb, config_);
  EXPECT_FALSE(repair.criterion_restored);
  EXPECT_EQ(repair.final_radius, config_.vpt().effective_k());
  EXPECT_FALSE(repair.active[*cut_]);
}

}  // namespace
}  // namespace tgc::core
