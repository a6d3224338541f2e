#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "tgcover/cycle/candidates.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/cycle/horton.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/fixtures.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/gf2_elim.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::cycle {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

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

Graph petersen() {
  GraphBuilder b(10);
  for (VertexId v = 0; v < 5; ++v) {
    b.add_edge(v, (v + 1) % 5);          // outer C5
    b.add_edge(5 + v, 5 + (v + 2) % 5);  // inner pentagram
    b.add_edge(v, 5 + v);                // spokes
  }
  return b.build();
}

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

/// Enumerates every simple cycle of a small graph (smallest vertex first,
/// DFS over larger-id vertices only). Exponential — tests only.
std::vector<Cycle> all_simple_cycles(const Graph& g) {
  std::vector<Cycle> out;
  std::vector<VertexId> path;
  std::vector<bool> on_path(g.num_vertices(), false);

  auto dfs = [&](auto&& self, VertexId start, VertexId cur) -> void {
    for (const VertexId next : g.neighbors(cur)) {
      if (next == start && path.size() >= 3) {
        out.push_back(Cycle::from_vertex_sequence(g, path));
      }
      if (next <= start || on_path[next]) continue;
      // Canonical form: each cycle found once from its smallest vertex with
      // its second-smallest neighbor direction; dedupe below handles the
      // two orientations.
      path.push_back(next);
      on_path[next] = true;
      self(self, start, next);
      path.pop_back();
      on_path[next] = false;
    }
  };

  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    path = {s};
    on_path.assign(g.num_vertices(), false);
    on_path[s] = true;
    dfs(dfs, s, s);
  }

  // Each cycle is discovered twice (both orientations); dedupe by vector.
  std::vector<Cycle> dedup;
  for (const Cycle& c : out) {
    const bool seen = std::any_of(dedup.begin(), dedup.end(), [&](const Cycle& d) {
      return d.edges() == c.edges();
    });
    if (!seen) dedup.push_back(c);
  }
  return dedup;
}

/// Brute-force minimum cycle basis: greedy over *all* simple cycles.
std::pair<std::size_t, std::size_t> brute_irreducible_bounds(const Graph& g) {
  const std::size_t nu = graph::cycle_space_dimension(g);
  if (nu == 0) return {0, 0};
  auto cycles = all_simple_cycles(g);
  std::stable_sort(cycles.begin(), cycles.end(),
                   [](const Cycle& a, const Cycle& b) {
                     return a.length() < b.length();
                   });
  util::Gf2Eliminator elim(g.num_edges());
  std::size_t min_len = 0;
  std::size_t max_len = 0;
  for (const Cycle& c : cycles) {
    if (elim.insert(c.edges())) {
      if (min_len == 0) min_len = c.length();
      max_len = c.length();
      if (elim.rank() == nu) break;
    }
  }
  TGC_CHECK(elim.rank() == nu);
  return {min_len, max_len};
}

// ------------------------------------------------------------------- Cycle

TEST(Cycle, FromVertexSequence) {
  const Graph g = cycle_graph(5);
  const std::vector<VertexId> seq{0, 1, 2, 3, 4};
  const Cycle c = Cycle::from_vertex_sequence(g, seq);
  EXPECT_EQ(c.length(), 5u);
  EXPECT_TRUE(is_simple_cycle(g, c.edges()));
}

TEST(Cycle, FromVertexSequenceRejectsNonWalk) {
  const Graph g = cycle_graph(5);
  const std::vector<VertexId> seq{0, 2, 4};
  EXPECT_THROW(Cycle::from_vertex_sequence(g, seq), tgc::CheckError);
}

TEST(Cycle, AdditionIsSymmetricDifference) {
  // Two triangles sharing an edge inside K4: sum is the outer 4-cycle.
  const Graph g = complete_graph(4);
  const Cycle t1 =
      Cycle::from_vertex_sequence(g, std::vector<VertexId>{0, 1, 2});
  const Cycle t2 =
      Cycle::from_vertex_sequence(g, std::vector<VertexId>{0, 2, 3});
  Cycle sum = t1;
  sum.add(t2);
  EXPECT_EQ(sum.length(), 4u);
  EXPECT_TRUE(is_simple_cycle(g, sum.edges()));
  EXPECT_FALSE(sum.edges().test(*g.edge_between(0, 2)));
}

TEST(Cycle, IsCycleSpaceElement) {
  const Graph g = complete_graph(4);
  const Cycle t1 =
      Cycle::from_vertex_sequence(g, std::vector<VertexId>{0, 1, 2});
  EXPECT_TRUE(is_cycle_space_element(g, t1.edges()));
  util::Gf2Vector path(g.num_edges());
  path.set(*g.edge_between(0, 1));
  path.set(*g.edge_between(1, 2));
  EXPECT_FALSE(is_cycle_space_element(g, path));
  EXPECT_TRUE(is_cycle_space_element(g, util::Gf2Vector(g.num_edges())));
}

TEST(Cycle, SimpleCycleRejectsDisjointUnion) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  const Graph g = b.build();
  util::Gf2Vector both(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) both.set(e);
  EXPECT_TRUE(is_cycle_space_element(g, both));
  EXPECT_FALSE(is_simple_cycle(g, both));
}

TEST(Cycle, CycleVerticesRoundTrip) {
  const Graph g = cycle_graph(7);
  const std::vector<VertexId> seq{0, 1, 2, 3, 4, 5, 6};
  const Cycle c = Cycle::from_vertex_sequence(g, seq);
  EXPECT_EQ(cycle_vertices(g, c.edges()), seq);
  // A triangle inside K4, anchored at its smallest vertex.
  const Graph k4 = complete_graph(4);
  const Cycle t =
      Cycle::from_vertex_sequence(k4, std::vector<VertexId>{3, 1, 2});
  EXPECT_EQ(cycle_vertices(k4, t.edges()), (std::vector<VertexId>{1, 2, 3}));
}

TEST(Cycle, CycleVerticesRejectsNonSimple) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  const Graph g = b.build();
  util::Gf2Vector both(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) both.set(e);
  EXPECT_THROW(cycle_vertices(g, both), tgc::CheckError);
}

TEST(Cycle, CycleSum) {
  const Graph g = complete_graph(4);
  const std::vector<Cycle> cs{
      Cycle::from_vertex_sequence(g, std::vector<VertexId>{0, 1, 2}),
      Cycle::from_vertex_sequence(g, std::vector<VertexId>{0, 2, 3})};
  const Cycle s = cycle_sum(cs);
  EXPECT_EQ(s.length(), 4u);
}

// -------------------------------------------------------------- candidates

TEST(Candidates, TriangleGraph) {
  const Graph g = complete_graph(3);
  const auto cands = fundamental_cycle_candidates(g);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].length, 3u);
}

TEST(Candidates, SortedByLength) {
  const Graph g = grid_graph(3, 3);
  const auto cands = fundamental_cycle_candidates(g);
  EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end(),
                             [](const CandidateCycle& a, const CandidateCycle& b) {
                               return a.length < b.length;
                             }));
  for (const auto& c : cands) {
    EXPECT_EQ(c.edges.popcount(), c.length);
    EXPECT_TRUE(is_cycle_space_element(g, c.edges));
  }
}

TEST(Candidates, LengthCapFilters) {
  const Graph g = grid_graph(4, 4);
  CandidateOptions opt;
  opt.max_length = 4;
  opt.depth_limit = 2;
  const auto cands = fundamental_cycle_candidates(g, opt);
  EXPECT_FALSE(cands.empty());
  for (const auto& c : cands) EXPECT_LE(c.length, 4u);
}

// The CycleDedup key of two explicit 64-bit words: the hash folds ids two
// per word, low id first.
std::vector<graph::EdgeId> key_from_words(std::uint64_t w0, std::uint64_t w1) {
  return {static_cast<graph::EdgeId>(w0), static_cast<graph::EdgeId>(w0 >> 32),
          static_cast<graph::EdgeId>(w1), static_cast<graph::EdgeId>(w1 >> 32)};
}

TEST(Candidates, DedupSurvivesHashCollision) {
  // Engineer two distinct 4-id keys with identical CycleDedup::hash(). The
  // hash folds the words (id0 | id1 << 32), (id2 | id3 << 32) with
  // h = (h ^ w) * m and finishes with a bijective avalanche, so the keys
  // collide iff their pre-avalanche values match: flip word 0 by `a`, then
  // word 1 must absorb the resulting fold difference `d`.
  const std::uint64_t m = 0x9e3779b97f4a7c15ull;
  const std::uint64_t seed = 0xcbf29ce484222325ull ^ 4u;
  const std::uint64_t w0 = 0x0123456789abcdefull;
  const std::uint64_t w1 = 0xfedcba9876543210ull;
  const std::uint64_t a = 0x5555aaaa5555aaaaull;
  const std::uint64_t d = ((seed ^ w0) * m) ^ ((seed ^ w0 ^ a) * m);

  const std::vector<graph::EdgeId> c1 = key_from_words(w0, w1);
  const std::vector<graph::EdgeId> c2 = key_from_words(w0 ^ a, w1 ^ d);
  ASSERT_NE(c1, c2);
  ASSERT_EQ(CycleDedup::hash(c1), CycleDedup::hash(c2));

  // A hash-only dedup would drop the second cycle; comparing the stored ids
  // on every probe hit must keep both, while genuine duplicates are still
  // rejected — also when the colliding key is a fresh copy.
  CycleDedup dedup;
  EXPECT_TRUE(dedup.insert(c1));
  EXPECT_TRUE(dedup.insert(c2));
  EXPECT_FALSE(dedup.insert(c1));
  EXPECT_FALSE(dedup.insert(key_from_words(w0 ^ a, w1 ^ d)));
  EXPECT_EQ(dedup.size(), 2u);

  dedup.clear();
  EXPECT_EQ(dedup.size(), 0u);
  EXPECT_TRUE(dedup.insert(c2));
  EXPECT_TRUE(dedup.insert(c1));
}

TEST(Candidates, DedupGrowsAndClearKeepsCapacity) {
  // A stream of sorted edge-id lists of length 3..12 with repeats, long
  // enough to grow the probe table many times, against std::set.
  util::Rng rng(17);
  std::vector<std::vector<graph::EdgeId>> stream;
  for (std::size_t i = 0; i < 6000; ++i) {
    if (!stream.empty() && rng.bernoulli(0.3)) {
      stream.push_back(stream[rng.next_below(stream.size())]);
      continue;
    }
    std::vector<graph::EdgeId> key;
    const std::size_t len = 3 + rng.next_below(10);
    while (key.size() < len) {
      const auto id = static_cast<graph::EdgeId>(rng.next_below(400));
      if (std::find(key.begin(), key.end(), id) == key.end()) key.push_back(id);
    }
    std::sort(key.begin(), key.end());
    stream.push_back(std::move(key));
  }

  CycleDedup dedup;
  EXPECT_EQ(dedup.table_size(), 0u);
  for (int pass = 0; pass < 2; ++pass) {
    std::set<std::vector<graph::EdgeId>> reference;
    for (const auto& key : stream) {
      ASSERT_EQ(dedup.insert(key), reference.insert(key).second);
    }
    EXPECT_EQ(dedup.size(), reference.size());
    EXPECT_LE(2 * dedup.size(), dedup.table_size());
    EXPECT_GT(dedup.table_size(), 2 * 1024u);

    // clear keeps the table: the second pass replays the stream without
    // growing it, and sees every key afresh.
    const std::size_t slots = dedup.table_size();
    dedup.clear();
    EXPECT_EQ(dedup.size(), 0u);
    EXPECT_EQ(dedup.table_size(), slots);
    dedup.reserve(16);
    EXPECT_EQ(dedup.table_size(), slots);
  }
}

TEST(Candidates, CandidatesSpanCycleSpace) {
  const Graph g = random_graph(12, 24, 99);
  const auto cands = fundamental_cycle_candidates(g);
  util::Gf2Eliminator elim(g.num_edges());
  for (const auto& c : cands) elim.insert(c.edges);
  EXPECT_EQ(elim.rank(), graph::cycle_space_dimension(g));
}

// ------------------------------------------------------------------ Horton

TEST(Horton, CycleGraph) {
  const auto mcb = minimum_cycle_basis(cycle_graph(7));
  ASSERT_EQ(mcb.cycles.size(), 1u);
  EXPECT_EQ(mcb.total_length, 7u);
}

TEST(Horton, K4IsThreeTriangles) {
  const auto mcb = minimum_cycle_basis(complete_graph(4));
  ASSERT_EQ(mcb.cycles.size(), 3u);
  EXPECT_EQ(mcb.total_length, 9u);
  EXPECT_EQ(mcb.min_length(), 3u);
  EXPECT_EQ(mcb.max_length(), 3u);
}

TEST(Horton, PetersenAllPentagons) {
  // The Petersen graph's MCB consists of six 5-cycles (girth 5, ν = 6).
  const auto mcb = minimum_cycle_basis(petersen());
  ASSERT_EQ(mcb.cycles.size(), 6u);
  EXPECT_EQ(mcb.min_length(), 5u);
  EXPECT_EQ(mcb.max_length(), 5u);
  EXPECT_EQ(mcb.total_length, 30u);
}

TEST(Horton, GridUnitSquares) {
  const auto bounds = irreducible_cycle_bounds(grid_graph(4, 4));
  EXPECT_EQ(bounds.cycle_space_dim, 9u);
  EXPECT_EQ(bounds.min_size, 4u);
  EXPECT_EQ(bounds.max_size, 4u);
}

TEST(Horton, ChordedHexagon) {
  // C6 plus a long diagonal: two 4-cycles.
  GraphBuilder b(6);
  for (VertexId v = 0; v < 6; ++v) b.add_edge(v, (v + 1) % 6);
  b.add_edge(0, 3);
  const auto bounds = irreducible_cycle_bounds(b.build());
  EXPECT_EQ(bounds.min_size, 4u);
  EXPECT_EQ(bounds.max_size, 4u);
}

TEST(Horton, ForestHasNoCycles) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const auto bounds = irreducible_cycle_bounds(b.build());
  EXPECT_EQ(bounds.cycle_space_dim, 0u);
  EXPECT_EQ(bounds.min_size, 0u);
  EXPECT_EQ(bounds.max_size, 0u);
}

TEST(Horton, MobiusBandBounds) {
  // 16 triangles plus the central 4-cycle (which is independent of the
  // triangles because H1 is non-trivial): bounds are (3, 4).
  const auto fx = gen::mobius_band();
  const auto bounds = irreducible_cycle_bounds(fx.graph);
  EXPECT_EQ(bounds.cycle_space_dim, 17u);
  EXPECT_EQ(bounds.min_size, 3u);
  EXPECT_EQ(bounds.max_size, 4u);
}

TEST(Horton, BasisCyclesAreSimpleAndIndependent) {
  const Graph g = random_graph(14, 30, 4242);
  const auto mcb = minimum_cycle_basis(g);
  util::Gf2Eliminator elim(g.num_edges());
  for (const Cycle& c : mcb.cycles) {
    EXPECT_TRUE(is_simple_cycle(g, c.edges()));
    EXPECT_TRUE(elim.insert(c.edges()));
  }
  EXPECT_EQ(elim.rank(), graph::cycle_space_dimension(g));
}

TEST(Horton, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = random_graph(9, 16, seed);
    const auto bounds = irreducible_cycle_bounds(g);
    const auto [bmin, bmax] = brute_irreducible_bounds(g);
    EXPECT_EQ(bounds.min_size, bmin) << "seed " << seed;
    EXPECT_EQ(bounds.max_size, bmax) << "seed " << seed;
  }
}

TEST(Horton, LcaRestrictedVariantAgrees) {
  // Algorithm 1's literal candidate set (LCA at the root) yields the same
  // basis length profile as the fundamental-cycle superset.
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    const Graph g = random_graph(12, 22, seed);
    const auto full = minimum_cycle_basis(g, /*lca_at_root_only=*/false);
    const auto lca = minimum_cycle_basis(g, /*lca_at_root_only=*/true);
    EXPECT_EQ(full.total_length, lca.total_length) << "seed " << seed;
    EXPECT_EQ(full.min_length(), lca.min_length()) << "seed " << seed;
    EXPECT_EQ(full.max_length(), lca.max_length()) << "seed " << seed;
  }
}

// -------------------------------------------------------------------- span

TEST(Span, CycleGraphThresholds) {
  const Graph g = cycle_graph(5);
  EXPECT_FALSE(short_cycles_span(g, 4));
  EXPECT_TRUE(short_cycles_span(g, 5));
  EXPECT_TRUE(short_cycles_span(g, 9));
}

TEST(Span, TreeAlwaysSpans) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  EXPECT_TRUE(short_cycles_span(b.build(), 3));
}

TEST(Span, GridNeedsFour) {
  const Graph g = grid_graph(4, 4);
  EXPECT_FALSE(short_cycles_span(g, 3));
  EXPECT_TRUE(short_cycles_span(g, 4));
}

TEST(Span, MobiusNeedsFour) {
  const auto fx = gen::mobius_band();
  EXPECT_FALSE(short_cycles_span(fx.graph, 3));  // central circle survives
  EXPECT_TRUE(short_cycles_span(fx.graph, 4));
}

TEST(Span, AgreesWithAlgorithmOneOnRandomGraphs) {
  for (std::uint64_t seed = 21; seed <= 32; ++seed) {
    const Graph g = random_graph(12, 26, seed);
    const auto bounds = irreducible_cycle_bounds(g);
    for (std::uint32_t tau = 3; tau <= 8; ++tau) {
      const bool expected =
          bounds.cycle_space_dim == 0 || bounds.max_size <= tau;
      EXPECT_EQ(short_cycles_span(g, tau), expected)
          << "seed " << seed << " tau " << tau;
    }
  }
}

TEST(SpanContain, MobiusOuterVsCore) {
  // The headline Fig. 1 behaviour at the cycle level: the outer boundary is
  // 3-partitionable (sum of all triangles) but the central circle is not.
  const auto fx = gen::mobius_band();
  const Cycle outer = Cycle::from_vertex_sequence(fx.graph, fx.outer_cycle);
  const Cycle core = Cycle::from_vertex_sequence(fx.graph, fx.core_cycle);
  EXPECT_TRUE(short_cycles_contain(fx.graph, 3, outer.edges()));
  EXPECT_FALSE(short_cycles_contain(fx.graph, 3, core.edges()));
  EXPECT_TRUE(short_cycles_contain(fx.graph, 4, core.edges()));
}

TEST(SpanContain, ZeroVectorAlwaysContained) {
  const Graph g = cycle_graph(6);
  EXPECT_TRUE(short_cycles_contain(g, 3, util::Gf2Vector(g.num_edges())));
}

TEST(ShortCycleBasis, RanksAndSpan) {
  const Graph g = grid_graph(3, 3);
  const ShortCycleBasis b3(g, 3);
  EXPECT_FALSE(b3.spans_cycle_space());
  EXPECT_EQ(b3.rank(), 0u);
  const ShortCycleBasis b4(g, 4);
  EXPECT_TRUE(b4.spans_cycle_space());
  EXPECT_EQ(b4.rank(), 4u);
  EXPECT_EQ(b4.cycle_space_dim(), 4u);
}

TEST(ShortCycleBasis, PartitionCertificateForMobiusOuter) {
  const auto fx = gen::mobius_band();
  const ShortCycleBasis basis(fx.graph, 3, /*with_certificates=*/true);
  const Cycle outer = Cycle::from_vertex_sequence(fx.graph, fx.outer_cycle);
  const auto parts = basis.partition_of(outer.edges());
  ASSERT_TRUE(parts.has_value());
  EXPECT_FALSE(parts->empty());
  util::Gf2Vector sum(fx.graph.num_edges());
  for (const Cycle& c : *parts) {
    EXPECT_LE(c.length(), 3u);
    sum.xor_assign(c.edges());
  }
  EXPECT_TRUE(sum == outer.edges());
}

TEST(ShortCycleBasis, NoCertificateOutsideSpan) {
  const auto fx = gen::mobius_band();
  const ShortCycleBasis basis(fx.graph, 3, /*with_certificates=*/true);
  const Cycle core = Cycle::from_vertex_sequence(fx.graph, fx.core_cycle);
  EXPECT_FALSE(basis.partition_of(core.edges()).has_value());
}

// Parameterized sweep: on random graphs, S_τ membership of every MCB cycle
// of length ≤ τ must hold (they generate S_τ).
class SpanSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpanSweep, McbCyclesWithinTauAreContained) {
  const std::uint32_t tau = GetParam();
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    const Graph g = random_graph(14, 28, seed);
    const auto mcb = minimum_cycle_basis(g);
    for (const Cycle& c : mcb.cycles) {
      if (c.length() <= tau) {
        EXPECT_TRUE(short_cycles_contain(g, tau, c.edges()))
            << "seed " << seed << " tau " << tau;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, SpanSweep, ::testing::Values(3u, 4u, 5u, 6u));

}  // namespace
}  // namespace tgc::cycle
