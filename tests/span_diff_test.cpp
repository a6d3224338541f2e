// Differential tests of the τ-span kernel against the dense reference in
// span_reference.hpp: the same verdicts, the same exit rank and the same
// `horton_candidates` / `gf2_pivots` counter deltas, on random graphs and
// punctured UDG balls at τ = 3…8, and a random-row differential of
// util::Gf2Eliminator. One SpanScratch and one eliminator are reused across
// every case, so stale state left by an earlier stream would show here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "span_reference.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/gf2_elim.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;
using util::Gf2Vector;

struct Work {
  std::uint64_t candidates = 0;
  std::uint64_t pivots = 0;
  friend bool operator==(const Work&, const Work&) = default;
  Work& operator+=(const Work& w) {
    candidates += w.candidates;
    pivots += w.pivots;
    return *this;
  }
};

/// The kernel counters `fn` adds. Telemetry is on while `fn` runs (with it
/// off, obs::add counts nothing and every delta would read 0) and back in
/// its previous state afterwards.
template <typename Fn>
Work counted(Fn&& fn) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  fn();
  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(was_enabled);
  return {delta.get(obs::CounterId::kHortonCandidates),
          delta.get(obs::CounterId::kGf2Pivots)};
}

std::string describe(const Work& w) {
  return "candidates " + std::to_string(w.candidates) + " pivots " +
         std::to_string(w.pivots);
}

Graph random_graph(std::size_t n, std::size_t m, util::Rng& rng) {
  GraphBuilder b(n);
  while (b.num_edges() < m) {
    b.add_edge(static_cast<VertexId>(rng.next_below(n)),
               static_cast<VertexId>(rng.next_below(n)));
  }
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

/// A cycle-space element of `g`: the sum of a random subset of the
/// fundamental cycles of a BFS tree from vertex 0.
Gf2Vector random_cycle_element(const Graph& g, util::Rng& rng) {
  Gf2Vector out(g.num_edges());
  const span_reference::FreshTree tree(g, 0, graph::kUnreached);
  for (VertexId x = 0; x < g.num_vertices(); ++x) {
    if (!tree.reached(x)) continue;
    const auto nbrs = g.neighbors(x);
    const auto eids = g.incident_edges(x);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId y = nbrs[i];
      if (y <= x || tree.parent_edge(x) == eids[i] ||
          tree.parent_edge(y) == eids[i] || !rng.bernoulli(0.4)) {
        continue;
      }
      const VertexId lca = tree.lca(x, y);
      for (VertexId u = x; u != lca; u = tree.parent(u)) {
        out.flip(tree.parent_edge(u));
      }
      for (VertexId u = y; u != lca; u = tree.parent(u)) {
        out.flip(tree.parent_edge(u));
      }
      out.flip(eids[i]);
    }
  }
  return out;
}

Gf2Vector random_vector(std::size_t dim, double p, util::Rng& rng) {
  Gf2Vector v(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    if (rng.bernoulli(p)) v.set(i);
  }
  return v;
}

class SpanDiff : public ::testing::Test {
 protected:
  /// short_cycles_span on `g` against the reference. The eliminator is
  /// emptied first so that a run that never reaches it (trivial cycle
  /// space) reports rank 0, like the reference.
  bool expect_span_matches(const Graph& g, std::uint32_t tau,
                           const std::string& what) {
    span_reference::SpanResult ref;
    const Work ref_work =
        counted([&] { ref = span_reference::short_cycles_span(g, tau); });
    scratch_.elim.reset(0);
    bool got = false;
    const Work work =
        counted([&] { got = cycle::short_cycles_span(g, tau, scratch_); });
    EXPECT_EQ(got, ref.verdict) << what;
    EXPECT_EQ(scratch_.elim.rank(), ref.rank) << what;
    EXPECT_EQ(work, ref_work) << what << ": kernel " << describe(work)
                              << ", reference " << describe(ref_work);
    ref_work_ += ref_work;
    ++(ref.verdict ? spanning_ : vetoed_);
    return ref.verdict;
  }

  /// short_cycles_contain of `target` against the reference.
  void expect_contain_matches(const Graph& g, std::uint32_t tau,
                              const Gf2Vector& target,
                              const std::string& what) {
    span_reference::SpanResult ref;
    const Work ref_work = counted(
        [&] { ref = span_reference::short_cycles_contain(g, tau, target); });
    scratch_.elim.reset(0);
    bool got = false;
    const Work work = counted([&] {
      got = cycle::short_cycles_contain(g, tau, target, scratch_);
    });
    EXPECT_EQ(got, ref.verdict) << what;
    EXPECT_EQ(scratch_.elim.rank(), ref.rank) << what;
    EXPECT_EQ(work, ref_work) << what << ": kernel " << describe(work)
                              << ", reference " << describe(ref_work);
    ref_work_ += ref_work;
    ++(ref.verdict ? contained_ : not_contained_);
    ++cases_;
  }

  void expect_contain_cases(const Graph& g, std::uint32_t tau,
                            util::Rng& rng, const std::string& what) {
    expect_contain_matches(g, tau, random_cycle_element(g, rng),
                           what + " cycle element");
    expect_contain_matches(g, tau, random_vector(g.num_edges(), 0.2, rng),
                           what + " random vector");
  }

  /// The work comparisons are only as strong as the counts they compare.
  void TearDown() override {
    EXPECT_GT(ref_work_.candidates, 0u);
    EXPECT_GT(ref_work_.pivots, 0u);
  }

  cycle::SpanScratch scratch_;
  Work ref_work_;  ///< summed over every comparison
  std::size_t cases_ = 0;
  std::size_t spanning_ = 0;
  std::size_t vetoed_ = 0;
  std::size_t contained_ = 0;
  std::size_t not_contained_ = 0;
};

TEST_F(SpanDiff, RandomGraphsMatchDenseReference) {
  util::Rng rng(2024);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = 4 + rng.next_below(15);
    const std::size_t max_m = n * (n - 1) / 2;
    const std::size_t m =
        std::min(max_m, n - 2 + rng.next_below(2 * n + 2));
    const Graph g = random_graph(n, m, rng);
    const auto tau = static_cast<std::uint32_t>(3 + trial % 6);
    const std::string what = "trial " + std::to_string(trial) + " n " +
                             std::to_string(n) + " m " + std::to_string(m) +
                             " tau " + std::to_string(tau);
    expect_span_matches(g, tau, what);
    expect_contain_cases(g, tau, rng, what);
  }
  EXPECT_GT(spanning_, 20u);
  EXPECT_GT(vetoed_, 20u);
  EXPECT_GT(contained_, 20u);
  EXPECT_GT(not_contained_, 20u);
}

TEST_F(SpanDiff, PuncturedUdgBallsMatchDenseReference) {
  // VPT balls: the punctured k-hop neighbourhood of a node, k = ⌈τ/2⌉, as an
  // induced Graph and as the BallView the VPT kernel builds, in sparse and
  // denser deployments so that both verdicts occur at every τ.
  std::size_t balls = 0;
  for (const double degree : {6.0, 9.0, 13.0}) {
    util::Rng rng(static_cast<std::uint64_t>(degree));
    const Graph g =
        gen::random_connected_udg(
            110, gen::side_for_average_degree(110, 1.0, degree), 1.0, rng)
            .graph;
    for (std::uint32_t tau = 3; tau <= 8; ++tau) {
      const unsigned k = (tau + 1) / 2;
      for (int pick = 0; pick < 12; ++pick) {
        const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        const std::vector<VertexId> members = graph::k_hop_neighbors(g, v, k);
        const Graph ball = graph::induce_vertices(g, members).graph;
        const std::string what = "degree " + std::to_string(degree) +
                                 " tau " + std::to_string(tau) + " ball of " +
                                 std::to_string(v);
        const bool verdict = expect_span_matches(ball, tau, what);
        expect_contain_cases(ball, tau, rng, what);

        // The BallView overloads run the same enumeration.
        graph::BallView view;
        std::vector<VertexId> local(g.num_vertices(), graph::kInvalidVertex);
        for (VertexId i = 0; i < members.size(); ++i) local[members[i]] = i;
        view.build(members.size(), [&](VertexId la, auto&& emit) {
          for (const VertexId b : g.neighbors(members[la])) {
            if (local[b] != graph::kInvalidVertex) emit(local[b]);
          }
        });
        ASSERT_EQ(view.num_edges(), ball.num_edges()) << what;
        const std::size_t nu = graph::cycle_space_dimension(ball);
        const Work graph_work = counted(
            [&] { (void)span_reference::short_cycles_span(ball, tau); });
        ref_work_ += graph_work;
        bool got = false;
        scratch_.elim.reset(0);
        EXPECT_EQ(counted([&] {
                    got = cycle::short_cycles_span(view, tau, scratch_);
                  }),
                  graph_work)
            << what;
        EXPECT_EQ(got, verdict) << what;
        if (graph::is_connected(ball) && !members.empty()) {
          scratch_.elim.reset(0);
          EXPECT_EQ(counted([&] {
                      got = cycle::short_cycles_span(view, tau, nu, scratch_);
                    }),
                    graph_work)
              << what;
          EXPECT_EQ(got, verdict) << what;
        }
        ++balls;
      }
    }
  }
  EXPECT_EQ(balls, 3u * 6u * 12u);
  EXPECT_GT(spanning_, 20u);
  EXPECT_GT(vetoed_, 20u);
}

TEST_F(SpanDiff, LongCycleAtItsOwnLength) {
  util::Rng rng(12);
  const Graph ring = cycle_graph(12);
  EXPECT_TRUE(expect_span_matches(ring, 12, "12-cycle at tau 12"));
  EXPECT_FALSE(expect_span_matches(ring, 11, "12-cycle at tau 11"));
  expect_contain_cases(ring, 12, rng, "12-cycle at tau 12");
  expect_contain_cases(ring, 11, rng, "12-cycle at tau 11");
  Gf2Vector whole(ring.num_edges());
  for (std::size_t e = 0; e < ring.num_edges(); ++e) whole.set(e);
  expect_contain_matches(ring, 12, whole, "whole 12-cycle at tau 12");
  expect_contain_matches(ring, 11, whole, "whole 12-cycle at tau 11");
  expect_contain_matches(ring, 12, Gf2Vector(ring.num_edges()), "zero target");
}

/// One random row for the eliminator differential: dense, sparse, the sum
/// of earlier rows (dependent), or zero. `bits` gets the set bits.
Gf2Vector random_row(std::size_t dim, const std::vector<Gf2Vector>& earlier,
                     util::Rng& rng, std::vector<std::uint32_t>& bits) {
  Gf2Vector v(dim);
  switch (rng.next_below(5)) {
    case 0:
    case 1:
      v = random_vector(dim, 0.05 + 0.45 * rng.next_double(), rng);
      break;
    case 2:
      for (std::size_t i = 1 + rng.next_below(8); i > 0; --i) {
        v.set(rng.next_below(dim));
      }
      break;
    case 3:
      for (const Gf2Vector& e : earlier) {
        if (rng.bernoulli(0.3)) v.xor_assign(e);
      }
      break;
    default:
      break;  // zero
  }
  bits.clear();
  v.for_each_set_bit(
      [&](std::size_t i) { bits.push_back(static_cast<std::uint32_t>(i)); });
  rng.shuffle(bits);  // the sparse form takes any order
  return v;
}

TEST(SpanDiffEliminator, RandomRowsMatchDenseReference) {
  util::Rng rng(77);
  util::Gf2Eliminator elim;  // reset between trials, never rebuilt
  const std::size_t dims[] = {1, 5, 63, 64, 65, 127, 128, 129, 200, 321};
  std::vector<std::uint32_t> bits;
  std::uint64_t ref_pivots = 0;  // the inserts' work comparisons are not void
  for (std::size_t trial = 0; trial < 240; ++trial) {
    const std::size_t dim =
        trial % 2 == 0 ? dims[trial / 2 % 10] : 1 + rng.next_below(400);
    const std::size_t rows = 1 + rng.next_below(std::min<std::size_t>(
                                     2 * dim + 2, 260));
    const std::size_t aug = trial % 3 == 0 ? rows : 0;
    elim.reset(dim, aug);
    span_reference::DenseEliminator ref(dim, aug);
    const std::string what = "trial " + std::to_string(trial) + " dim " +
                             std::to_string(dim) + " aug " +
                             std::to_string(aug);

    std::vector<Gf2Vector> inserted;
    for (std::size_t r = 0; r < rows; ++r) {
      const Gf2Vector v = random_row(dim, inserted, rng, bits);
      bool expected = false;
      const Work ref_work = counted([&] { expected = ref.insert(v); });
      bool got = false;
      const Work work = counted([&] {
        got = rng.bernoulli(0.5) ? elim.insert(v) : elim.insert(bits);
      });
      ASSERT_EQ(got, expected) << what << " row " << r;
      ASSERT_EQ(work, ref_work) << what << " row " << r;
      ref_pivots += ref_work.pivots;
      ASSERT_EQ(elim.rank(), ref.rank()) << what << " row " << r;
      inserted.push_back(v);
    }
    EXPECT_EQ(elim.inserted_count(), rows) << what;

    for (std::size_t q = 0; q < 12; ++q) {
      const Gf2Vector v = random_row(dim, inserted, rng, bits);
      bool in_ref = false;
      bool in_got = false;
      EXPECT_EQ(counted([&] { in_got = elim.in_span(v); }),
                counted([&] { in_ref = ref.in_span(v); }))
          << what;
      EXPECT_EQ(in_got, in_ref) << what;
      Gf2Vector res_ref;
      Gf2Vector res_got;
      EXPECT_EQ(counted([&] { res_got = elim.reduce(v); }),
                counted([&] { res_ref = ref.reduce(v); }))
          << what;
      EXPECT_TRUE(res_got == res_ref) << what;
      if (aug > 0) {
        std::optional<std::vector<std::size_t>> combo_ref;
        std::optional<std::vector<std::size_t>> combo_got;
        EXPECT_EQ(counted([&] { combo_got = elim.combination_for(v); }),
                  counted([&] { combo_ref = ref.combination_for(v); }))
            << what;
        EXPECT_EQ(combo_got, combo_ref) << what;
      }
    }
  }
  EXPECT_GT(ref_pivots, 0u);
}

}  // namespace
}  // namespace tgc
