#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/sim/async.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/sim/flood.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

// ------------------------------------------------------------------ engine

TEST(RoundEngine, DeliveryTakesOneRound) {
  const Graph g = path_graph(3);
  RoundEngine engine(g);
  std::vector<std::vector<std::uint32_t>> got(3);

  engine.run_round([&](VertexId node, std::span<const Message> inbox,
                       Broadcast& out) {
    EXPECT_TRUE(inbox.empty());  // nothing sent yet
    if (node == 0) out.send(7, std::array{42u});
  });
  engine.run_round([&](VertexId node, std::span<const Message> inbox,
                       Broadcast& /*out*/) {
    for (const Message& m : inbox) {
      EXPECT_EQ(node, 1u);
      EXPECT_EQ(m.from, 0u);
      EXPECT_EQ(m.type, 7u);
      got[node].assign(m.payload.begin(), m.payload.end());
    }
  });
  EXPECT_EQ(got[1], (std::vector<std::uint32_t>{42}));
  EXPECT_EQ(engine.stats().rounds, 2u);
  EXPECT_EQ(engine.stats().messages, 1u);
  EXPECT_EQ(engine.stats().payload_words, 1u);
}

TEST(RoundEngine, BroadcastReachesActiveNeighbors) {
  const Graph g = path_graph(3);
  RoundEngine engine(g);
  engine.deactivate(2);
  std::set<VertexId> heard;
  engine.run_round([&](VertexId node, std::span<const Message>,
                       Broadcast& out) {
    if (node == 1) out.send(5, std::array{1u, 2u, 3u});
  });
  engine.run_round([&](VertexId node, std::span<const Message> inbox,
                       Broadcast&) {
    if (!inbox.empty()) heard.insert(node);
  });
  EXPECT_EQ(heard, (std::set<VertexId>{0}));
  // Both transmissions were counted even though one hit a sleeping radio.
  EXPECT_EQ(engine.stats().messages, 2u);
  EXPECT_EQ(engine.stats().payload_words, 6u);
}

TEST(RoundEngine, DeactivatedNodesDoNotParticipate) {
  const Graph g = path_graph(3);
  RoundEngine engine(g);
  engine.deactivate(1);
  std::size_t calls = 0;
  engine.run_round([&](VertexId, std::span<const Message>,
                       Broadcast&) { ++calls; });
  EXPECT_EQ(calls, 2u);
}

// -------------------------------------------------------------------- khop

TEST(KHop, ViewsMatchGroundTruth) {
  util::Rng rng(10);
  const auto dep = gen::random_connected_udg(80, 3.0, 1.0, rng);
  const Graph& g = dep.graph;

  for (const unsigned k : {1u, 2u, 3u}) {
    RoundEngine engine(g);
    const auto views = collect_k_hop_views(engine, k);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      // Expected member set: N^k(v) ∪ {v}.
      const auto dist = graph::bfs_distances(g, v, k);
      std::set<VertexId> expected;
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        if (dist[u] != graph::kUnreached) expected.insert(u);
      }
      std::set<VertexId> got;
      for (const auto& [node, slice] : views[v].index) {
        (void)slice;
        got.insert(node);
        // Each recorded adjacency list is the node's true neighbor list.
        const auto adj = views[v].record(node);
        std::vector<VertexId> sorted_adj(adj.begin(), adj.end());
        std::sort(sorted_adj.begin(), sorted_adj.end());
        const auto nbrs = g.neighbors(node);
        EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), sorted_adj.begin(),
                               sorted_adj.end()))
            << "node " << node << " in view of " << v;
      }
      EXPECT_EQ(got, expected) << "owner " << v << " k " << k;
    }
  }
}

TEST(KHop, TrafficIsCounted) {
  util::Rng rng(11);
  const auto dep = gen::random_connected_udg(60, 2.5, 1.0, rng);
  RoundEngine engine(dep.graph);
  collect_k_hop_views(engine, 2);
  EXPECT_GT(engine.stats().messages, dep.graph.num_vertices());
  EXPECT_GT(engine.stats().payload_words, 0u);
}

// ------------------------------------------------------------------- flood

std::size_t one_word(std::span<const std::uint32_t> /*rest*/) { return 1; }

/// A UDG with three nodes deactivated and a random set of active origins,
/// each seeding the 1-word record [v].
struct FloodCase {
  Graph g;
  std::vector<bool> active;
  std::vector<bool> origin;
};

FloodCase flood_case() {
  util::Rng rng(12);
  FloodCase c{gen::random_connected_udg(70, 2.8, 1.0, rng).graph, {}, {}};
  c.active.assign(70, true);
  for (const VertexId v : {5u, 23u, 41u}) c.active[v] = false;
  c.origin.assign(70, false);
  for (VertexId v = 0; v < 70; ++v) {
    c.origin[v] = c.active[v] && rng.bernoulli(0.4);
  }
  return c;
}

/// Floods the case's records `radius` hops on `runner` (its three nodes
/// already deactivated) and checks that every active node holds exactly the
/// origins within `radius` hops of the active topology, each once, its own
/// record first. Returns the hop distances over the active topology.
std::vector<std::vector<std::uint32_t>> check_flood(SyncRunner& runner,
                                                    const FloodCase& c,
                                                    unsigned radius) {
  const std::size_t n = c.g.num_vertices();
  std::vector<std::vector<std::uint32_t>> held(n);
  for (VertexId v = 0; v < n; ++v) {
    if (c.origin[v]) held[v] = {v};
  }
  flood(runner, held, radius, 7, one_word);

  const Graph active_graph = graph::filter_active(c.g, c.active);
  std::vector<std::vector<std::uint32_t>> dist(n);
  for (VertexId v = 0; v < n; ++v) {
    if (!c.active[v]) continue;
    dist[v] = graph::bfs_distances(active_graph, v, radius);
    std::vector<std::uint32_t> expected;
    for (VertexId u = 0; u < n; ++u) {
      if (c.origin[u] && dist[v][u] != graph::kUnreached) expected.push_back(u);
    }
    if (c.origin[v]) {
      EXPECT_TRUE(!held[v].empty() && held[v].front() == v)
          << "node " << v << " does not hold its own record first";
    }
    std::vector<std::uint32_t> got = held[v];
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "node " << v << " radius " << radius;
  }
  return dist;
}

// Besides reaching exactly the radius, no node ever sends a record twice:
// node x broadcasts (to every neighbour, awake or not) in round r < radius
// exactly when some origin lies exactly r hops away, and its messages carry
// each origin under `radius` hops once.
TEST(Flood, ReachesTheRadiusAndSendsNoRecordTwiceOnRoundEngine) {
  const FloodCase c = flood_case();
  for (unsigned radius = 1; radius <= 4; ++radius) {
    RoundEngine engine(c.g);
    for (VertexId v = 0; v < c.g.num_vertices(); ++v) {
      if (!c.active[v]) engine.deactivate(v);
    }
    const auto dist = check_flood(engine, c, radius);
    std::size_t messages = 0;
    std::size_t words = 0;
    for (VertexId x = 0; x < c.g.num_vertices(); ++x) {
      if (!c.active[x]) continue;
      std::vector<bool> sends(radius, false);
      std::size_t sent_origins = 0;
      for (VertexId u = 0; u < c.g.num_vertices(); ++u) {
        if (!c.origin[u] || dist[x][u] >= radius) continue;
        sends[dist[x][u]] = true;
        ++sent_origins;
      }
      const std::size_t deg = c.g.neighbors(x).size();
      messages += deg * static_cast<std::size_t>(
                            std::count(sends.begin(), sends.end(), true));
      words += deg * sent_origins;
    }
    EXPECT_EQ(engine.stats().rounds, radius + 1);
    EXPECT_EQ(engine.stats().messages, messages) << "radius " << radius;
    EXPECT_EQ(engine.stats().payload_words, words) << "radius " << radius;
  }
}

TEST(Flood, ReachesTheRadiusOverLossyLinks) {
  const FloodCase c = flood_case();
  for (unsigned radius = 1; radius <= 4; ++radius) {
    AsyncEngine engine(c.g, {.loss_probability = 0.2, .seed = 40 + radius});
    AlphaSynchronizer sync(engine);
    for (VertexId v = 0; v < c.g.num_vertices(); ++v) {
      if (!c.active[v]) sync.deactivate(v);
    }
    check_flood(sync, c, radius);
    EXPECT_GT(engine.messages_lost(), 0u);
  }
}

TEST(Flood, RefusesARecordWhoseOriginIsNoVertex) {
  const Graph g = path_graph(3);
  RoundEngine engine(g);
  std::vector<std::vector<std::uint32_t>> held(3);
  held[0] = {7};
  EXPECT_THROW(flood(engine, held, 2, 7, one_word), tgc::CheckError);
}

// Erasure drops the node's index entry; its mentions inside surviving
// records stay in the pool and read as unknown, which is how the local VPT
// test skips them.
TEST(LocalView, EraseNode) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const Graph g = b.build();
  RoundEngine engine(g);
  LocalView view = collect_k_hop_views(engine, 1)[0];
  EXPECT_EQ(view.order, 3u);
  view.erase_node(2);
  EXPECT_FALSE(view.knows(2));
  // Live filtering of the surviving records.
  for (const VertexId u : {0u, 1u}) {
    EXPECT_TRUE(view.knows(u));
    EXPECT_EQ(view.record(u).size(), 2u);  // the stale mention stays
    std::vector<VertexId> live;
    for (const VertexId w : view.record(u)) {
      if (view.knows(w)) live.push_back(w);
    }
    EXPECT_EQ(live, (std::vector<VertexId>{u == 0 ? 1u : 0u}));
  }
}

// --------------------------------------------------------------------- MIS

void check_mis_valid(const Graph& g, const std::vector<bool>& active,
                     const std::vector<bool>& candidate,
                     const std::vector<bool>& selected, unsigned radius) {
  // Independence: selected nodes pairwise more than `radius` hops apart.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!selected[v]) continue;
    EXPECT_TRUE(candidate[v] && active[v]);
    // BFS over active topology.
    std::vector<std::uint32_t> dist(g.num_vertices(), graph::kUnreached);
    dist[v] = 0;
    std::vector<VertexId> frontier{v};
    for (unsigned d = 0; d < radius && !frontier.empty(); ++d) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId w : g.neighbors(u)) {
          if (active[w] && dist[w] == graph::kUnreached) {
            dist[w] = d + 1;
            next.push_back(w);
          }
        }
      }
      frontier = std::move(next);
    }
    bool blocked_near = false;
    bool candidate_near = false;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (u == v || dist[u] == graph::kUnreached) continue;
      if (selected[u]) blocked_near = true;
      if (candidate[u]) candidate_near = true;
    }
    (void)candidate_near;
    EXPECT_FALSE(blocked_near) << "two selected within " << radius << " hops";
  }
  // Maximality: every unselected candidate is within radius of a selected.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!candidate[v] || !active[v] || selected[v]) continue;
    std::vector<std::uint32_t> dist(g.num_vertices(), graph::kUnreached);
    dist[v] = 0;
    std::vector<VertexId> frontier{v};
    bool found = false;
    for (unsigned d = 0; d < radius && !frontier.empty() && !found; ++d) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId w : g.neighbors(u)) {
          if (active[w] && dist[w] == graph::kUnreached) {
            dist[w] = d + 1;
            if (selected[w]) found = true;
            next.push_back(w);
          }
        }
      }
      frontier = std::move(next);
    }
    EXPECT_TRUE(found) << "candidate " << v << " not dominated";
  }
}

TEST(Mis, OracleValidOnRandomInputs) {
  util::Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    util::Rng r = rng.fork(trial);
    const auto dep = gen::random_connected_udg(100, 3.5, 1.0, r);
    std::vector<bool> active(100, true);
    std::vector<bool> candidate(100, false);
    for (VertexId v = 0; v < 100; ++v) candidate[v] = r.bernoulli(0.4);
    for (const unsigned radius : {1u, 2u, 3u}) {
      const auto selected = elect_mis_oracle(dep.graph, active, candidate,
                                             radius, 1000 + trial);
      check_mis_valid(dep.graph, active, candidate, selected, radius);
    }
  }
}

TEST(Mis, DistributedMatchesOracle) {
  util::Rng rng(13);
  for (int trial = 0; trial < 4; ++trial) {
    util::Rng r = rng.fork(trial);
    const auto dep = gen::random_connected_udg(80, 3.0, 1.0, r);
    std::vector<bool> candidate(80, false);
    for (VertexId v = 0; v < 80; ++v) candidate[v] = r.bernoulli(0.5);
    for (const unsigned radius : {1u, 2u}) {
      RoundEngine engine(dep.graph);
      const MisOutcome dist =
          elect_mis_distributed(engine, candidate, radius, 99 + trial);
      const auto oracle = elect_mis_oracle(dep.graph, engine.active(),
                                           candidate, radius, 99 + trial);
      EXPECT_EQ(dist.selected, oracle) << "trial " << trial << " radius "
                                       << radius;
      EXPECT_GE(dist.subrounds, 1u);
    }
  }
}

TEST(Mis, RespectsInactiveTopology) {
  // A path 0-1-2 with node 1 inactive: 0 and 2 are infinitely far apart, so
  // both can be selected even with a large radius.
  const Graph g = path_graph(3);
  RoundEngine engine(g);
  engine.deactivate(1);
  std::vector<bool> candidate{true, false, true};
  const MisOutcome out = elect_mis_distributed(engine, candidate, 3, 5);
  EXPECT_TRUE(out.selected[0]);
  EXPECT_TRUE(out.selected[2]);
  const auto oracle =
      elect_mis_oracle(g, engine.active(), candidate, 3, 5);
  EXPECT_EQ(out.selected, oracle);
}

TEST(Mis, EmptyCandidateSet) {
  const Graph g = path_graph(4);
  RoundEngine engine(g);
  std::vector<bool> candidate(4, false);
  const MisOutcome out = elect_mis_distributed(engine, candidate, 2, 1);
  EXPECT_EQ(std::count(out.selected.begin(), out.selected.end(), true), 0);
  EXPECT_EQ(out.subrounds, 0u);
}

TEST(Mis, PrioritiesDeterministic) {
  EXPECT_EQ(mis_priority(5, 10), mis_priority(5, 10));
  EXPECT_NE(mis_priority(5, 10), mis_priority(5, 11));
  EXPECT_NE(mis_priority(5, 10), mis_priority(6, 10));
}

}  // namespace
}  // namespace tgc::sim
