// The τ-span kernel and both VPT kernels against the brute-force oracle of
// brute_cycle_oracle.hpp, which shares no code with them: every verdict on
// random graphs, UDG balls and the Möbius fixture at τ = 3…6 must match.
#include <gtest/gtest.h>

#include <vector>

#include "brute_cycle_oracle.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/gen/fixtures.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

/// The topology of `g` as plain adjacency lists: links between active
/// vertices whose edge is up.
brute::Adjacency adjacency(const Graph& g, const std::vector<bool>& active,
                           const std::vector<bool>& edge_up) {
  brute::Adjacency adj(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (!active[u]) continue;
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (active[nbrs[i]] && edge_up[eids[i]]) adj[u].push_back(nbrs[i]);
    }
  }
  return adj;
}

brute::Adjacency adjacency(const Graph& g) {
  return adjacency(g, std::vector<bool>(g.num_vertices(), true),
                   std::vector<bool>(g.num_edges(), true));
}

Graph to_graph(const brute::Adjacency& adj) {
  GraphBuilder b(adj.size());
  for (VertexId u = 0; u < adj.size(); ++u) {
    for (const std::uint32_t w : adj[u]) {
      if (u < w) b.add_edge(u, w);
    }
  }
  return b.build();
}

Graph random_graph(std::size_t n, double p, util::Rng& rng) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w = u + 1; w < n; ++w) {
      if (rng.bernoulli(p)) b.add_edge(u, w);
    }
  }
  return b.build();
}

/// Tallies of the verdicts compared, so each test can require both kinds.
struct Tally {
  std::size_t yes = 0;
  std::size_t no = 0;
  void add(bool verdict) { ++(verdict ? yes : no); }
};

Tally compare_span(const Graph& g, const std::string& what) {
  Tally t;
  const brute::Adjacency adj = adjacency(g);
  for (unsigned tau = 3; tau <= 6; ++tau) {
    const bool want = brute::short_cycles_span(adj, tau);
    EXPECT_EQ(cycle::short_cycles_span(g, tau), want) << what << " tau " << tau;
    t.add(want);
  }
  return t;
}

TEST(BruteOracle, ShortCyclesSpanOnRandomGraphs) {
  util::Rng rng(601);
  Tally t;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 8 + rng.next_below(23);  // 8…30 vertices
    const double degree = 2.0 + rng.uniform(0.0, 3.0);
    const Graph g = random_graph(n, degree / static_cast<double>(n - 1), rng);
    const Tally one = compare_span(g, "trial " + std::to_string(trial));
    t.yes += one.yes;
    t.no += one.no;
  }
  EXPECT_GT(t.yes, 100u);
  EXPECT_GT(t.no, 100u);
}

TEST(BruteOracle, ShortCyclesSpanOnUdgBalls) {
  // Punctured 2-hop balls of a UDG of average degree ~6: the inputs the
  // kernel sees inside a VPT test.
  util::Rng rng(602);
  const Graph g = gen::random_connected_udg(150, 9.0, 1.0, rng).graph;
  const brute::Adjacency adj = adjacency(g);
  Tally t;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<char> keep = brute::within(adj, {v}, 2);
    keep[v] = 0;
    const brute::Adjacency ball = brute::induced(adj, keep);
    if (ball.size() > 30) continue;
    const Tally one = compare_span(to_graph(ball), "ball of " +
                                                       std::to_string(v));
    t.yes += one.yes;
    t.no += one.no;
  }
  EXPECT_GT(t.yes, 20u);
  EXPECT_GT(t.no, 20u);
}

TEST(BruteOracle, MobiusFixture) {
  const gen::MobiusFixture mobius = gen::mobius_band();
  const Graph& g = mobius.graph;
  // Triangles miss the central circle, a 4-cycle: it spans from τ = 4 on.
  const Tally t = compare_span(g, "Möbius band");
  EXPECT_EQ(t.yes, 3u);
  const brute::Adjacency adj = adjacency(g);
  const std::vector<bool> active(g.num_vertices(), true);
  Tally verdicts;
  for (unsigned tau = 3; tau <= 6; ++tau) {
    const core::VptConfig config{.tau = tau};
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const bool want =
          brute::vertex_deletable(adj, v, config.effective_k(), tau);
      EXPECT_EQ(core::vpt_vertex_deletable(g, active, v, config), want)
          << "vertex " << v << " tau " << tau;
      verdicts.add(want);
    }
  }
  EXPECT_GT(verdicts.yes, 0u);
  EXPECT_GT(verdicts.no, 0u);
}

/// A sparse UDG with a tenth of its nodes asleep, so VPT balls stay small
/// enough to enumerate and hold holes as well as triangulated patches.
struct Topology {
  Graph g;
  std::vector<bool> active;
};

Topology sparse_udg(std::uint64_t seed) {
  util::Rng rng(seed);
  Topology t{gen::random_connected_udg(70, 6.0, 1.0, rng).graph, {}};
  t.active.assign(t.g.num_vertices(), true);
  for (VertexId v = 0; v < t.g.num_vertices(); ++v) {
    t.active[v] = !rng.bernoulli(0.1);
  }
  return t;
}

TEST(BruteOracle, VertexVerdictsMatchVpt) {
  Tally t;
  for (const std::uint64_t seed : {603ull, 604ull, 605ull, 606ull}) {
    const Topology topo = sparse_udg(seed);
    const brute::Adjacency adj = adjacency(
        topo.g, topo.active, std::vector<bool>(topo.g.num_edges(), true));
    core::VptWorkspace ws;
    for (unsigned tau = 3; tau <= 6; ++tau) {
      const core::VptConfig config{.tau = tau};
      for (VertexId v = 0; v < topo.g.num_vertices(); ++v) {
        if (!topo.active[v]) continue;
        const bool want =
            brute::vertex_deletable(adj, v, config.effective_k(), tau);
        EXPECT_EQ(core::vpt_vertex_deletable(topo.g, topo.active, v, config,
                                             ws),
                  want)
            << "seed " << seed << " vertex " << v << " tau " << tau;
        t.add(want);
      }
    }
  }
  EXPECT_GT(t.yes, 100u);
  EXPECT_GT(t.no, 100u);
}

TEST(BruteOracle, EdgeVerdictsMatchVpt) {
  Tally t;
  for (const std::uint64_t seed : {607ull, 608ull, 609ull, 610ull}) {
    const Topology topo = sparse_udg(seed);
    util::Rng rng(seed + 100);
    std::vector<bool> edge_up(topo.g.num_edges());
    for (graph::EdgeId e = 0; e < topo.g.num_edges(); ++e) {
      edge_up[e] = !rng.bernoulli(0.1);
    }
    const brute::Adjacency adj = adjacency(topo.g, topo.active, edge_up);
    core::VptWorkspace ws;
    for (unsigned tau = 3; tau <= 6; ++tau) {
      const core::VptConfig config{.tau = tau};
      for (graph::EdgeId e = 0; e < topo.g.num_edges(); ++e) {
        const auto [u, v] = topo.g.edge(e);
        if (!topo.active[u] || !topo.active[v] || !edge_up[e]) continue;
        const bool want =
            brute::edge_deletable(adj, u, v, config.effective_k(), tau);
        EXPECT_EQ(core::vpt_edge_deletable(topo.g, topo.active, edge_up, e,
                                           config, ws),
                  want)
            << "seed " << seed << " edge " << u << "-" << v << " tau " << tau;
        t.add(want);
      }
    }
  }
  EXPECT_GT(t.yes, 100u);
  EXPECT_GT(t.no, 100u);
}

}  // namespace
}  // namespace tgc
