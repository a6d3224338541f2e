#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::graph {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

// ---------------------------------------------------------------- building

TEST(GraphBuilder, DedupAndSelfLoops) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // duplicate in reverse order
  EXPECT_FALSE(b.add_edge(2, 2));  // self loop dropped
  EXPECT_TRUE(b.add_edge(2, 3));
  EXPECT_EQ(b.num_edges(), 2u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphBuilder, OutOfRangeThrows) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), tgc::CheckError);
}

TEST(Graph, AdjacencySortedAndParallelEdgeIds) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto eids = g.incident_edges(2);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const auto [u, v] = g.edge(eids[i]);
    EXPECT_TRUE((u == 2 && v == nbrs[i]) || (v == 2 && u == nbrs[i]));
  }
}

TEST(Graph, EdgeBetween) {
  const Graph g = cycle_graph(5);
  for (VertexId v = 0; v < 5; ++v) {
    const auto e = g.edge_between(v, (v + 1) % 5);
    ASSERT_TRUE(e.has_value());
    const auto [a, b] = g.edge(*e);
    EXPECT_EQ(a, std::min<VertexId>(v, (v + 1) % 5));
    EXPECT_EQ(b, std::max<VertexId>(v, (v + 1) % 5));
  }
  EXPECT_FALSE(g.edge_between(0, 2).has_value());
  EXPECT_FALSE(g.edge_between(3, 3).has_value());

  // Random graphs with a hub of degree ≥ 100 and isolated vertices, built
  // with duplicate and reversed insertions: for every pair, ids ≥ n and
  // u == v included, edge_between must return the id a scan over edge(e)
  // finds, and that id is the one the pair's first insertion received.
  util::Rng rng(32);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 150 + rng.next_below(50);
    const std::size_t connected = n - 6;  // the last 6 vertices stay isolated
    const auto hub = static_cast<VertexId>(rng.next_below(connected));
    GraphBuilder b(n);
    std::vector<std::pair<VertexId, VertexId>> first;  // per fresh edge id
    std::vector<std::pair<VertexId, VertexId>> added;
    const auto add = [&](VertexId u, VertexId v) {
      if (b.add_edge(u, v)) first.emplace_back(u, v);
      added.emplace_back(u, v);
    };
    for (VertexId v = 0; v < connected; ++v) {
      if (v != hub && rng.bernoulli(0.9)) add(v, hub);
    }
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(connected));
      const auto v = static_cast<VertexId>(rng.next_below(connected));
      add(u, v);
      if (rng.bernoulli(0.3)) add(v, u);
    }
    for (std::size_t i = 0; i < n; ++i) {  // late duplicates, either order
      const auto [u, v] = added[rng.next_below(added.size())];
      if (rng.bernoulli(0.5)) {
        add(u, v);
      } else {
        add(v, u);
      }
    }
    const Graph g = b.build();
    ASSERT_GE(g.degree(hub), 100u);
    ASSERT_EQ(g.num_edges(), first.size());

    const std::size_t span = n + 2;
    std::vector<std::optional<EdgeId>> scan(span * span);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.edge(e);
      scan[u * span + v] = scan[v * span + u] = e;
    }
    for (VertexId u = 0; u < span; ++u) {
      for (VertexId v = 0; v < span; ++v) {
        ASSERT_EQ(g.edge_between(u, v), scan[u * span + v]) << u << " " << v;
        ASSERT_EQ(g.has_edge(u, v), scan[u * span + v].has_value());
      }
      EXPECT_FALSE(g.edge_between(u, kInvalidVertex).has_value());
    }
    for (EdgeId e = 0; e < first.size(); ++e) {
      EXPECT_EQ(g.edge_between(first[e].first, first[e].second), e);
      EXPECT_EQ(g.edge_between(first[e].second, first[e].first), e);
    }
  }
}

TEST(Graph, DegreeAndAverageDegree) {
  const Graph g = complete_graph(6);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 5.0);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(is_connected(g));
}

// --------------------------------------------------------------------- BFS

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, TruncatedDepth) {
  const Graph g = path_graph(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreached);
}

TEST(Bfs, DisconnectedUnreached) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreached);
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  // 5 and 6 isolated
  const Graph g = b.build();
  std::size_t count = 0;
  const auto label = connected_components(g, &count);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(label[0], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[5], label[6]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

TEST(KHopNeighbors, ExcludesSelfRespectsRadius) {
  const Graph g = path_graph(7);
  const auto n2 = k_hop_neighbors(g, 3, 2);
  EXPECT_EQ(n2, (std::vector<VertexId>{1, 2, 4, 5}));
  const auto n1 = k_hop_neighbors(g, 0, 1);
  EXPECT_EQ(n1, (std::vector<VertexId>{1}));
}

// ------------------------------------------------------------- bounded BFS

TEST(BoundedBfs, LayersExpansionsAndExactCut) {
  const Graph g = path_graph(10);
  const auto all = [](VertexId, EdgeId) { return true; };
  const std::vector<VertexId> sources{0, 9, 0};  // duplicates are ignored
  BoundedBfs bfs;
  bfs.run(g, sources, 2, all);
  EXPECT_EQ(std::vector<VertexId>(bfs.reached().begin(), bfs.reached().end()),
            (std::vector<VertexId>{0, 9, 1, 8, 2, 7}));
  EXPECT_EQ(bfs.expansions(), 4u);
  EXPECT_TRUE(bfs.cut_off());
  // The two searches meet in the middle at depth 4: depth 3 leaves 4 and 5
  // one hop past the bound, depth 4 leaves nothing.
  bfs.run(g, sources, 3, all);
  EXPECT_EQ(bfs.reached().size(), 8u);
  EXPECT_TRUE(bfs.cut_off());
  bfs.run(g, sources, 4, all);
  EXPECT_EQ(bfs.reached().size(), 10u);
  EXPECT_FALSE(bfs.cut_off());
  bfs.run(g, {}, 4, all);
  EXPECT_TRUE(bfs.reached().empty());
  EXPECT_FALSE(bfs.cut_off());
}

TEST(BoundedBfs, RelayFiltersVerticesAndEdges) {
  // A 6-cycle searched from 0 with link (0,1) and vertex 3 barred: the
  // search reaches 5 and 4 only, and what the relay bars never counts as
  // cut off, however small the bound.
  const Graph g = cycle_graph(6);
  const EdgeId barred = g.edge_between(0, 1).value();
  const auto relay = [&](VertexId w, EdgeId e) {
    return w != 3 && e != barred;
  };
  const std::vector<VertexId> sources{0};
  BoundedBfs bfs;
  bfs.run(g, sources, 5, relay);
  EXPECT_EQ(std::vector<VertexId>(bfs.reached().begin(), bfs.reached().end()),
            (std::vector<VertexId>{0, 5, 4}));
  EXPECT_EQ(bfs.expansions(), 2u);
  EXPECT_FALSE(bfs.cut_off());
  bfs.run(g, sources, 2, relay);
  EXPECT_FALSE(bfs.cut_off());
  bfs.run(g, sources, 1, relay);
  EXPECT_TRUE(bfs.cut_off());
}

TEST(CycleSpaceDimension, KnownValues) {
  EXPECT_EQ(cycle_space_dimension(path_graph(5)), 0u);        // tree
  EXPECT_EQ(cycle_space_dimension(cycle_graph(5)), 1u);       // one cycle
  EXPECT_EQ(cycle_space_dimension(complete_graph(5)), 6u);    // 10-5+1
  GraphBuilder b(6);  // two triangles, disconnected
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  EXPECT_EQ(cycle_space_dimension(b.build()), 2u);
}

// --------------------------------------------------------------------- SPT

TEST(ShortestPathTree, DepthsMatchBfs) {
  util::Rng rng(77);
  GraphBuilder b(40);
  for (int i = 0; i < 90; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(40));
    const auto v = static_cast<VertexId>(rng.next_below(40));
    b.add_edge(u, v);
  }
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 40; ++v) {
    if (dist[v] == kUnreached) {
      EXPECT_FALSE(spt.reached(v));
    } else {
      ASSERT_TRUE(spt.reached(v));
      EXPECT_EQ(spt.depth(v), dist[v]);
      if (v != 0) {
        // Parent is one hop closer and adjacent.
        EXPECT_EQ(spt.depth(spt.parent(v)) + 1, spt.depth(v));
        EXPECT_TRUE(g.has_edge(v, spt.parent(v)));
        const auto [a, c] = g.edge(spt.parent_edge(v));
        EXPECT_TRUE((a == v && c == spt.parent(v)) ||
                    (c == v && a == spt.parent(v)));
      }
    }
  }
}

TEST(ShortestPathTree, LexicographicTieBreaking) {
  // 0 - {1,2} - 3: vertex 3 has two equal-depth parents; the smaller id (1)
  // must win.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.parent(3), 1u);
}

TEST(ShortestPathTree, Lca) {
  // Balanced binary-ish tree rooted at 0.
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  b.add_edge(2, 6);
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.lca(3, 4), 1u);
  EXPECT_EQ(spt.lca(3, 5), 0u);
  EXPECT_EQ(spt.lca(3, 1), 1u);
  EXPECT_EQ(spt.lca(6, 6), 6u);
}

TEST(ShortestPathTree, PathFromRoot) {
  const Graph g = path_graph(5);
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.path_from_root(3), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(spt.path_from_root(0), (std::vector<VertexId>{0}));
}

TEST(ShortestPathTree, TruncatedTreeStopsAtDepth) {
  const Graph g = path_graph(10);
  const ShortestPathTree spt(g, 0, 4);
  EXPECT_TRUE(spt.reached(4));
  EXPECT_FALSE(spt.reached(5));
}

/// For every root of `g` and depth limit D = 1…4: the untruncated tree
/// gives each vertex its smallest-id neighbour one layer up as parent
/// (lexicographic tie-breaking), and a tree rebuilt at limit D reaches
/// exactly the vertices at depth ≤ D, each with the untruncated tree's
/// parent, parent edge and depth. Returns the vertices compared.
template <typename G>
std::size_t expect_truncated_trees_match(const G& g, const std::string& what) {
  std::size_t compared = 0;
  ShortestPathTree truncated;
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    const ShortestPathTree full(g, root);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (v == root || !full.reached(v)) continue;
      VertexId want = kInvalidVertex;
      EdgeId want_edge = kInvalidEdge;
      const auto nbrs = g.neighbors(v);
      const auto eids = g.incident_edges(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (full.reached(nbrs[i]) && full.depth(nbrs[i]) + 1 == full.depth(v) &&
            nbrs[i] < want) {
          want = nbrs[i];
          want_edge = eids[i];
        }
      }
      EXPECT_EQ(full.parent(v), want) << what << " root " << root << " v " << v;
      EXPECT_EQ(full.parent_edge(v), want_edge)
          << what << " root " << root << " v " << v;
    }
    for (std::uint32_t depth = 1; depth <= 4; ++depth) {
      truncated.rebuild(g, root, depth);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const bool within = full.reached(v) && full.depth(v) <= depth;
        EXPECT_EQ(truncated.reached(v), within)
            << what << " root " << root << " D " << depth << " v " << v;
        if (!within || !truncated.reached(v)) continue;
        EXPECT_EQ(truncated.depth(v), full.depth(v));
        EXPECT_EQ(truncated.parent(v), full.parent(v))
            << what << " root " << root << " D " << depth << " v " << v;
        EXPECT_EQ(truncated.parent_edge(v), full.parent_edge(v))
            << what << " root " << root << " D " << depth << " v " << v;
        ++compared;
      }
    }
  }
  return compared;
}

TEST(ShortestPathTree, TruncatedTreeMatchesFullTreeToItsDepth) {
  // The build leaves the last layer it never expands unsorted; every layer
  // it does expand must be sorted, or parents change.
  util::Rng rng(404);
  std::size_t compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 8 + rng.next_below(33);
    GraphBuilder b(n);
    const std::size_t m = n + rng.next_below(2 * n);
    while (b.num_edges() < m) {
      b.add_edge(static_cast<VertexId>(rng.next_below(n)),
                 static_cast<VertexId>(rng.next_below(n)));
    }
    compared += expect_truncated_trees_match(
        b.build(), "random graph " + std::to_string(trial));
  }

  // Punctured 2-hop balls of a UDG, as the span kernel's BallView sees them.
  const auto dep = gen::random_connected_udg(150, 4.4, 1.0, rng);
  const Graph& g = dep.graph;
  std::vector<VertexId> local_of(g.num_vertices(), kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); v += 15) {
    const std::vector<VertexId> members = k_hop_neighbors(g, v, 2);
    for (VertexId i = 0; i < members.size(); ++i) local_of[members[i]] = i;
    BallView ball;
    ball.build(members.size(), [&](VertexId la, auto&& emit) {
      for (const VertexId b : g.neighbors(members[la])) {
        if (local_of[b] != kInvalidVertex) emit(local_of[b]);
      }
    });
    for (const VertexId m : members) local_of[m] = kInvalidVertex;
    compared +=
        expect_truncated_trees_match(ball, "ball of " + std::to_string(v));
  }
  EXPECT_GT(compared, 10000u);
}

// ---------------------------------------------------------------- subgraph

TEST(InduceVertices, MapsEdges) {
  const Graph g = complete_graph(6);
  const std::vector<VertexId> keep{1, 3, 5};
  const InducedSubgraph sub = induce_vertices(g, keep);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // triangle
  EXPECT_EQ(sub.to_parent[sub.local_of(3)], 3u);
  EXPECT_TRUE(sub.contains(5));
  EXPECT_FALSE(sub.contains(0));
}

TEST(InduceVertices, DropsOutsideEdges) {
  const Graph g = path_graph(5);
  const std::vector<VertexId> keep{0, 1, 3};
  const InducedSubgraph sub = induce_vertices(g, keep);
  EXPECT_EQ(sub.graph.num_edges(), 1u);  // only 0-1 survives
  EXPECT_TRUE(
      sub.graph.has_edge(sub.local_of(0), sub.local_of(1)));
}

TEST(InduceVertices, DuplicateThrows) {
  const Graph g = path_graph(3);
  const std::vector<VertexId> keep{0, 0};
  EXPECT_THROW(induce_vertices(g, keep), tgc::CheckError);
}

TEST(FilterActive, KeepsIdsDropsEdges) {
  const Graph g = complete_graph(5);
  std::vector<bool> active(5, true);
  active[2] = false;
  const Graph f = filter_active(g, active);
  EXPECT_EQ(f.num_vertices(), 5u);
  EXPECT_EQ(f.num_edges(), 6u);  // K4 among {0,1,3,4}
  EXPECT_EQ(f.degree(2), 0u);
  EXPECT_TRUE(f.has_edge(0, 4));
  EXPECT_FALSE(f.has_edge(0, 2));
}

}  // namespace
}  // namespace tgc::graph
