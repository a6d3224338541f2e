#include "tgcover/core/criterion.hpp"

#include <utility>

#include "tgcover/cycle/span.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::core {

namespace {

/// `vec` over `to`'s edge ids, or nullopt when one of its edges is missing
/// from `to` (the first such edge lands in `missing`). For CB over the awake
/// subgraph, nullopt means a crashed or sleeping node took a CB edge down
/// with it: no cycle set in the awake subgraph sums to CB, so no τ
/// certifies.
std::optional<util::Gf2Vector> try_remap(
    const graph::Graph& from, const util::Gf2Vector& vec,
    const graph::Graph& to,
    std::pair<graph::VertexId, graph::VertexId>* missing = nullptr) {
  TGC_CHECK(vec.size() == from.num_edges());
  TGC_CHECK(from.num_vertices() == to.num_vertices());
  util::Gf2Vector out(to.num_edges());
  bool complete = true;
  vec.for_each_set_bit([&](std::size_t e) {
    if (!complete) return;
    const auto [u, v] = from.edge(static_cast<graph::EdgeId>(e));
    const auto mapped = to.edge_between(u, v);
    if (!mapped.has_value()) {
      complete = false;
      if (missing != nullptr) *missing = {u, v};
      return;
    }
    out.set(*mapped);
  });
  if (!complete) return std::nullopt;
  return out;
}

}  // namespace

util::Gf2Vector remap_edge_vector(const graph::Graph& from,
                                  const util::Gf2Vector& vec,
                                  const graph::Graph& to) {
  std::pair<graph::VertexId, graph::VertexId> missing{};
  std::optional<util::Gf2Vector> out = try_remap(from, vec, to, &missing);
  TGC_CHECK_MSG(out.has_value(), "edge (" << missing.first << ","
                                          << missing.second
                                          << ") missing in target graph");
  return std::move(*out);
}

bool criterion_holds(const graph::Graph& g, const std::vector<bool>& active,
                     const util::Gf2Vector& cb_sum, unsigned tau) {
  TGC_CHECK(active.size() == g.num_vertices());
  const graph::Graph filtered = graph::filter_active(g, active);
  const std::optional<util::Gf2Vector> cb = try_remap(g, cb_sum, filtered);
  return cb.has_value() && cycle::short_cycles_contain(filtered, tau, *cb);
}

std::optional<std::vector<cycle::Cycle>> find_partition(
    const graph::Graph& g, const std::vector<bool>& active,
    const util::Gf2Vector& cb_sum, unsigned tau) {
  TGC_CHECK(active.size() == g.num_vertices());
  const graph::Graph filtered = graph::filter_active(g, active);
  const std::optional<util::Gf2Vector> cb = try_remap(g, cb_sum, filtered);
  if (!cb.has_value()) return std::nullopt;
  const cycle::ShortCycleBasis basis(filtered, tau, /*with_certificates=*/true);
  auto parts = basis.partition_of(*cb);
  if (!parts.has_value()) return std::nullopt;
  // Express the certificate cycles back over g's edge ids.
  std::vector<cycle::Cycle> out;
  out.reserve(parts->size());
  for (const cycle::Cycle& c : *parts) {
    out.emplace_back(remap_edge_vector(filtered, c.edges(), g));
  }
  return out;
}

unsigned smallest_certifiable_tau(const graph::Graph& g,
                                  const std::vector<bool>& active,
                                  const util::Gf2Vector& cb_sum,
                                  unsigned tau_cap) {
  TGC_CHECK(tau_cap >= 3);
  const graph::Graph filtered = graph::filter_active(g, active);
  const std::optional<util::Gf2Vector> awake = try_remap(g, cb_sum, filtered);
  if (!awake.has_value()) return 0;
  const util::Gf2Vector& cb = *awake;
  if (!cycle::short_cycles_contain(filtered, tau_cap, cb)) return 0;
  unsigned lo = 3;
  unsigned hi = tau_cap;
  while (lo < hi) {
    const unsigned mid = lo + (hi - lo) / 2;
    if (cycle::short_cycles_contain(filtered, mid, cb)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

NonRedundancyReport check_non_redundancy(const graph::Graph& g,
                                         const std::vector<bool>& active,
                                         const std::vector<bool>& internal,
                                         const util::Gf2Vector& cb_sum,
                                         unsigned tau) {
  TGC_CHECK(active.size() == g.num_vertices());
  TGC_CHECK(internal.size() == g.num_vertices());
  NonRedundancyReport report;
  report.criterion_holds = criterion_holds(g, active, cb_sum, tau);
  if (!report.criterion_holds) return report;

  std::vector<bool> probe = active;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!active[v] || !internal[v]) continue;
    probe[v] = false;
    if (criterion_holds(g, probe, cb_sum, tau)) {
      report.redundant_nodes.push_back(v);
    }
    probe[v] = true;
  }
  report.non_redundant = report.redundant_nodes.empty();
  return report;
}

}  // namespace tgc::core
