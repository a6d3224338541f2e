#include "tgcover/cycle/span.hpp"

#include <algorithm>

#include "chords.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::cycle {

namespace {

using graph::Graph;
using graph::VertexId;

/// Streams every short-cycle candidate into `scratch.elim`, stopping as soon
/// as the rank reaches `nu` (S_τ then spans the whole cycle space). Per BFS
/// root, the depth-⌊τ/2⌋ tree yields the fundamental cycle of each chord of
/// length ≤ τ; its edge ids are deduped in sparse form, and only a cycle
/// seen for the first time is densified, straight into the eliminator's
/// scratch row. Generic over Graph-like types (Graph, BallView).
template <typename G>
void build_streaming_basis(const G& g, std::uint32_t tau, std::size_t nu,
                           SpanScratch& scratch) {
  scratch.elim.reset(g.num_edges());
  // Identical candidates are regenerated from many roots, and every
  // dependent insert costs a full reduction pass.
  scratch.seen.clear();
  scratch.seen.reserve(std::max<std::size_t>(16, 2 * nu));

  std::uint64_t emitted = 0;
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    scratch.tree.rebuild(g, root, tau / 2);
    const bool keep_going =
        for_each_chord(g, scratch.tree, tau, scratch.ids, [&](VertexId) {
          ++emitted;
          if (!scratch.seen.insert(scratch.ids)) return true;  // duplicate
          scratch.elim.insert(scratch.ids);
          return scratch.elim.rank() < nu;  // stop as soon as S_τ spans
        });
    if (!keep_going) break;
  }
  obs::add(obs::CounterId::kHortonCandidates, emitted);
}

/// The streaming span test shared by the Graph and BallView overloads.
template <typename G>
bool short_cycles_span_impl(const G& g, std::uint32_t tau, std::size_t nu,
                            SpanScratch& scratch) {
  TGC_CHECK(tau >= 3);
  if (nu == 0) return true;
  build_streaming_basis(g, tau, nu, scratch);
  return scratch.elim.rank() == nu;
}

}  // namespace

bool short_cycles_span(const Graph& g, std::uint32_t tau) {
  SpanScratch scratch;
  return short_cycles_span(g, tau, scratch);
}

bool short_cycles_span(const Graph& g, std::uint32_t tau,
                       SpanScratch& scratch) {
  return short_cycles_span_impl(g, tau, graph::cycle_space_dimension(g),
                                scratch);
}

bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       SpanScratch& scratch) {
  return short_cycles_span_impl(g, tau, graph::cycle_space_dimension(g),
                                scratch);
}

bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       std::size_t nu, SpanScratch& scratch) {
  return short_cycles_span_impl(g, tau, nu, scratch);
}

bool short_cycles_contain(const Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target) {
  SpanScratch scratch;
  return short_cycles_contain(g, tau, target, scratch);
}

bool short_cycles_contain(const Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target,
                          SpanScratch& scratch) {
  TGC_CHECK(tau >= 3);
  TGC_CHECK(target.size() == g.num_edges());
  if (target.is_zero()) return true;
  // When the basis spans the whole cycle space, membership in S_τ reduces to
  // membership in the cycle space, which the reduction also decides exactly.
  build_streaming_basis(g, tau, graph::cycle_space_dimension(g), scratch);
  return scratch.elim.in_span(target);
}

ShortCycleBasis::ShortCycleBasis(const Graph& g, std::uint32_t tau,
                                 bool with_certificates)
    : tau_(tau),
      nu_(graph::cycle_space_dimension(g)),
      with_certificates_(with_certificates) {
  TGC_CHECK(tau >= 3);
  CandidateOptions options;
  options.depth_limit = tau / 2;
  options.max_length = tau;
  auto candidates = fundamental_cycle_candidates(g, options);

  // aug_dim must stay positive even with an empty candidate set so that
  // partition_of still answers (only the zero vector is partitionable then).
  elim_.reset(g.num_edges(), with_certificates
                                 ? std::max<std::size_t>(1, candidates.size())
                                 : 0);
  for (auto& cand : candidates) {
    if (!with_certificates && elim_.rank() == nu_) break;
    elim_.insert(cand.edges);
    if (with_certificates) generators_.push_back(std::move(cand));
  }
}

std::optional<std::vector<Cycle>> ShortCycleBasis::partition_of(
    const util::Gf2Vector& target) const {
  TGC_CHECK_MSG(with_certificates_,
                "ShortCycleBasis must be built with certificates enabled");
  const auto combo = elim_.combination_for(target);
  if (!combo.has_value()) return std::nullopt;
  std::vector<Cycle> parts;
  parts.reserve(combo->size());
  for (const std::size_t idx : *combo) {
    parts.emplace_back(generators_[idx].edges);
  }
  return parts;
}

}  // namespace tgc::cycle
