#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tgcover/cycle/candidates.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/gf2_elim.hpp"

namespace tgc::cycle {

/// Streaming test: do the cycles of length ≤ τ span the whole cycle space of
/// `g`? This is equivalent to "the maximum irreducible cycle of `g` has
/// length ≤ τ" (see DESIGN.md §3), which is the expensive half of the
/// τ-void-preserving-transformation deletability test (Definition 5).
///
/// Candidates are generated per BFS root (depth ⌊τ/2⌋) and eliminated
/// immediately, so the test exits as soon as the rank reaches ν without
/// materializing the full candidate set.
bool short_cycles_span(const graph::Graph& g, std::uint32_t tau);

/// Reusable scratch for the streaming span kernel: the shortest-path tree
/// rebuilt per root, the current candidate's edge ids, the sparse
/// candidate dedup and the eliminator, all re-filled in place. One instance
/// per worker thread (it is not synchronized); the VPT workspace owns one,
/// so back-to-back deletability tests stop allocating once the arrays have
/// grown to the largest ball. After a call, `elim` holds the basis the test
/// stopped at.
struct SpanScratch {
  graph::ShortestPathTree tree;
  std::vector<graph::EdgeId> ids;
  CycleDedup seen;
  util::Gf2Eliminator elim;
};

/// `short_cycles_span` evaluated through caller-owned scratch storage.
bool short_cycles_span(const graph::Graph& g, std::uint32_t tau,
                       SpanScratch& scratch);

/// The same streaming span test over an arena-backed punctured ball view —
/// the VPT hot path. Identical candidate enumeration and elimination order
/// as the Graph overload on the same structure (BallView reproduces
/// GraphBuilder's edge-id assignment), so the logical-cost counters are
/// byte-identical too.
bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       SpanScratch& scratch);

/// The BallView test for a caller that already knows the cycle-space
/// dimension `nu` of `g` (the VPT kernel checks the ball is connected, so
/// ν = |E| − |V| + 1).
bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       std::size_t nu, SpanScratch& scratch);

/// Streaming membership test: is `target` (an edge-incidence vector over g's
/// edges) in the subspace S_τ spanned by cycles of length ≤ τ? This is the
/// τ-partitionability test of Definitions 2/3 without materializing the full
/// candidate set: candidates are eliminated root by root and the test
/// short-circuits as soon as S_τ is known to span the whole cycle space.
bool short_cycles_contain(const graph::Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target);

/// `short_cycles_contain` evaluated through caller-owned scratch storage.
bool short_cycles_contain(const graph::Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target,
                          SpanScratch& scratch);

/// A basis of the subspace S_τ spanned by all cycles of length ≤ τ, with
/// optional explicit partition certificates.
///
/// `contains` implements the τ-partitionability test of Definition 3: a
/// cycle-space element (e.g. the sum of the boundary cycles CB) is
/// τ-partitionable iff it lies in S_τ. With `with_certificates`, an explicit
/// cycle partition (Definition 2) — a set of cycles of length ≤ τ summing to
/// the target — can be extracted.
class ShortCycleBasis {
 public:
  ShortCycleBasis(const graph::Graph& g, std::uint32_t tau,
                  bool with_certificates = false);

  std::uint32_t tau() const { return tau_; }
  std::size_t rank() const { return elim_.rank(); }
  std::size_t cycle_space_dim() const { return nu_; }

  /// True iff S_τ is the whole cycle space (max irreducible cycle ≤ τ).
  bool spans_cycle_space() const { return elim_.rank() == nu_; }

  /// τ-partitionability of `target` (an edge-incidence vector over g's
  /// edges). The caller is responsible for `target` being a cycle-space
  /// element; arbitrary vectors simply test subspace membership.
  bool contains(const util::Gf2Vector& target) const {
    return elim_.in_span(target);
  }

  /// Explicit cycle partition of `target` into generators of length ≤ τ.
  /// Requires construction with `with_certificates`; nullopt when `target`
  /// is not τ-partitionable.
  std::optional<std::vector<Cycle>> partition_of(
      const util::Gf2Vector& target) const;

 private:
  std::uint32_t tau_;
  std::size_t nu_;
  bool with_certificates_;
  std::vector<CandidateCycle> generators_;  // kept only with certificates
  util::Gf2Eliminator elim_;
};

}  // namespace tgc::cycle
