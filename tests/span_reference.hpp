#pragma once

// Test-only reference for the τ-span kernel: the dense streaming kernel as
// it stood before the sparse rewrite, kept as an obviously-correct oracle
// for span_diff_test. Every candidate is a dense incidence vector; a fresh
// shortest-path tree is built per root; dedup hashes the dense vector into
// an unordered_map of buckets; the eliminator stores one heap Gf2Vector per
// row and rescans the residual from its top word after every XOR. It bumps
// the same `horton_candidates` and `gf2_pivots` counters in the same order,
// so the kernel's counter deltas must match it exactly.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/gf2.hpp"

namespace tgc::span_reference {

using graph::EdgeId;
using graph::kInvalidEdge;
using graph::kInvalidVertex;
using graph::kUnreached;
using graph::VertexId;
using util::Gf2Vector;

/// Incremental GF(2) elimination with one heap vector per row.
class DenseEliminator {
 public:
  explicit DenseEliminator(std::size_t dim, std::size_t aug_dim = 0)
      : dim_(dim), aug_dim_(aug_dim), pivot_to_row_(dim, -1) {}

  std::size_t rank() const { return rows_.size(); }

  bool insert(Gf2Vector v) {
    TGC_CHECK(v.size() == dim_);
    TGC_CHECK_MSG(aug_dim_ == 0 || inserted_ < aug_dim_,
                  "augmented eliminator capacity exceeded");
    Gf2Vector aug(aug_dim_ > 0 ? aug_dim_ : 0);
    if (aug_dim_ > 0) aug.set(inserted_);
    ++inserted_;

    std::uint64_t steps = 0;
    std::size_t pivot = v.highest_set_bit();
    while (pivot != Gf2Vector::npos && pivot_to_row_[pivot] >= 0) {
      const auto row = static_cast<std::size_t>(pivot_to_row_[pivot]);
      v.xor_assign(rows_[row]);
      if (aug_dim_ > 0) aug.xor_assign(aug_rows_[row]);
      pivot = v.highest_set_bit();
      ++steps;
    }
    obs::add(obs::CounterId::kGf2Pivots, steps);
    if (pivot == Gf2Vector::npos) return false;

    pivot_to_row_[pivot] = static_cast<std::int32_t>(rows_.size());
    rows_.push_back(std::move(v));
    if (aug_dim_ > 0) aug_rows_.push_back(std::move(aug));
    return true;
  }

  Gf2Vector reduce(Gf2Vector v) const {
    TGC_CHECK(v.size() == dim_);
    std::uint64_t steps = 0;
    std::size_t pivot = v.highest_set_bit();
    while (pivot != Gf2Vector::npos && pivot_to_row_[pivot] >= 0) {
      v.xor_assign(rows_[static_cast<std::size_t>(pivot_to_row_[pivot])]);
      pivot = v.highest_set_bit();
      ++steps;
    }
    obs::add(obs::CounterId::kGf2Pivots, steps);
    return v;
  }

  bool in_span(const Gf2Vector& v) const { return reduce(v).is_zero(); }

  std::optional<std::vector<std::size_t>> combination_for(
      const Gf2Vector& v) const {
    TGC_CHECK(aug_dim_ > 0);
    TGC_CHECK(v.size() == dim_);
    Gf2Vector residual = v;
    Gf2Vector combo(aug_dim_);
    std::uint64_t steps = 0;
    std::size_t pivot = residual.highest_set_bit();
    while (pivot != Gf2Vector::npos && pivot_to_row_[pivot] >= 0) {
      const auto row = static_cast<std::size_t>(pivot_to_row_[pivot]);
      residual.xor_assign(rows_[row]);
      combo.xor_assign(aug_rows_[row]);
      pivot = residual.highest_set_bit();
      ++steps;
    }
    obs::add(obs::CounterId::kGf2Pivots, steps);
    if (!residual.is_zero()) return std::nullopt;
    return combo.set_bits();
  }

 private:
  std::size_t dim_;
  std::size_t aug_dim_;
  std::size_t inserted_ = 0;
  std::vector<Gf2Vector> rows_;
  std::vector<Gf2Vector> aug_rows_;
  std::vector<std::int32_t> pivot_to_row_;
};

/// Dense dedup: content hash of the whole vector, exact compare per bucket.
class DenseDedup {
 public:
  void reserve(std::size_t expected) { seen_.reserve(expected); }

  bool insert(const Gf2Vector& vec) {
    auto& bucket = seen_[vec.hash()];
    for (const Gf2Vector& prev : bucket) {
      if (prev == vec) return false;
    }
    bucket.push_back(vec);
    return true;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<Gf2Vector>> seen_;
};

/// Lexicographic shortest-path tree, built from scratch with fresh arrays.
class FreshTree {
 public:
  template <typename G>
  FreshTree(const G& g, VertexId root, std::uint32_t max_depth)
      : parent_(g.num_vertices(), kInvalidVertex),
        parent_edge_(g.num_vertices(), kInvalidEdge),
        depth_(g.num_vertices(), kUnreached) {
    depth_[root] = 0;
    std::vector<VertexId> layer{root};
    std::uint32_t d = 0;
    while (!layer.empty() && d < max_depth) {
      std::vector<VertexId> next;
      for (const VertexId u : layer) {
        const auto nbrs = g.neighbors(u);
        const auto eids = g.incident_edges(u);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId w = nbrs[j];
          if (depth_[w] == kUnreached) {
            depth_[w] = d + 1;
            parent_[w] = u;
            parent_edge_[w] = eids[j];
            next.push_back(w);
          }
        }
      }
      std::sort(next.begin(), next.end());
      layer = std::move(next);
      ++d;
    }
  }

  bool reached(VertexId v) const { return depth_[v] != kUnreached; }
  std::uint32_t depth(VertexId v) const { return depth_[v]; }
  VertexId parent(VertexId v) const { return parent_[v]; }
  EdgeId parent_edge(VertexId v) const { return parent_edge_[v]; }

  VertexId lca(VertexId x, VertexId y) const {
    while (x != y) {
      if (depth_[x] > depth_[y]) {
        x = parent_[x];
      } else if (depth_[y] > depth_[x]) {
        y = parent_[y];
      } else {
        x = parent_[x];
        y = parent_[y];
      }
    }
    return x;
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint32_t> depth_;
};

/// Builds each fundamental cycle of length ≤ tau of the depth-⌊τ/2⌋ tree
/// rooted at `root` into `scratch` and calls `sink(scratch)`; returns false
/// early when the sink asks to stop.
template <typename G, typename Sink>
bool emit_root_candidates(const G& g, VertexId root, std::uint32_t tau,
                          Gf2Vector& scratch, Sink&& sink) {
  const FreshTree spt(g, root, tau / 2);
  for (VertexId x = 0; x < g.num_vertices(); ++x) {
    if (!spt.reached(x)) continue;
    const auto nbrs = g.neighbors(x);
    const auto eids = g.incident_edges(x);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId y = nbrs[i];
      if (y <= x || !spt.reached(y)) continue;
      const EdgeId e = eids[i];
      if (spt.parent_edge(x) == e || spt.parent_edge(y) == e) continue;
      const VertexId lca = spt.lca(x, y);
      const std::uint32_t len =
          spt.depth(x) + spt.depth(y) + 1 - 2 * spt.depth(lca);
      if (len > tau) continue;
      scratch = Gf2Vector(g.num_edges());
      for (VertexId u = x; u != lca; u = spt.parent(u))
        scratch.set(spt.parent_edge(u));
      for (VertexId u = y; u != lca; u = spt.parent(u))
        scratch.set(spt.parent_edge(u));
      scratch.set(e);
      if (!sink(scratch)) return false;
    }
  }
  return true;
}

/// Streams all short-cycle candidates into an eliminator, stopping as soon
/// as the rank reaches `nu`.
template <typename G>
DenseEliminator build_streaming_basis(const G& g, std::uint32_t tau,
                                      std::size_t nu) {
  DenseEliminator elim(g.num_edges());
  DenseDedup seen;
  seen.reserve(std::max<std::size_t>(16, 2 * nu));
  Gf2Vector vec;
  std::uint64_t emitted = 0;
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    const bool keep_going =
        emit_root_candidates(g, root, tau, vec, [&](const Gf2Vector& c) {
          ++emitted;
          if (!seen.insert(c)) return true;
          elim.insert(c);
          return elim.rank() < nu;
        });
    if (!keep_going) break;
  }
  obs::add(obs::CounterId::kHortonCandidates, emitted);
  return elim;
}

/// The verdict of the streaming span test and the rank it stopped at (0
/// when the cycle space is trivial and no candidate was generated).
struct SpanResult {
  bool verdict = false;
  std::size_t rank = 0;
};

template <typename G>
SpanResult short_cycles_span(const G& g, std::uint32_t tau) {
  const std::size_t nu = graph::cycle_space_dimension(g);
  if (nu == 0) return {true, 0};
  const DenseEliminator elim = build_streaming_basis(g, tau, nu);
  return {elim.rank() == nu, elim.rank()};
}

inline SpanResult short_cycles_contain(const graph::Graph& g,
                                       std::uint32_t tau,
                                       const Gf2Vector& target) {
  if (target.is_zero()) return {true, 0};
  const DenseEliminator elim =
      build_streaming_basis(g, tau, graph::cycle_space_dimension(g));
  return {elim.in_span(target), elim.rank()};
}

}  // namespace tgc::span_reference
