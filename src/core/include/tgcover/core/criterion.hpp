#pragma once

#include <optional>
#include <vector>

#include "tgcover/cycle/cycle.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/util/gf2.hpp"

namespace tgc::core {

/// Re-expresses an edge-incidence vector of `from` in the edge ids of `to`
/// (the graphs must share vertex ids; every selected edge must exist in
/// `to`). Needed because `filter_active` rebuilds edge ids.
util::Gf2Vector remap_edge_vector(const graph::Graph& from,
                                  const util::Gf2Vector& vec,
                                  const graph::Graph& to);

/// The cycle-partition coverage criterion (Propositions 2 and 3): the active
/// subgraph G' achieves τ-confine coverage if the sum of the boundary cycles
/// CB is τ-partitionable in G'. `cb_sum` is the GF(2) sum of the boundary
/// cycles, expressed over g's edge ids; for a simply-connected target area
/// it is just the outer boundary cycle. False when a crashed or sleeping
/// node takes a CB edge out of the active subgraph.
bool criterion_holds(const graph::Graph& g, const std::vector<bool>& active,
                     const util::Gf2Vector& cb_sum, unsigned tau);

/// Like `criterion_holds` but additionally extracts an explicit cycle
/// partition — cycles of length ≤ τ in the active subgraph whose GF(2) sum
/// is CB (Definition 2). Cycles are returned over g's edge ids. nullopt when
/// the criterion fails. (Materializes the candidate basis: use for tests,
/// examples and post-hoc certification, not in schedulers.)
std::optional<std::vector<cycle::Cycle>> find_partition(
    const graph::Graph& g, const std::vector<bool>& active,
    const util::Gf2Vector& cb_sum, unsigned tau);

/// Smallest τ in [3, tau_cap] at which CB is τ-partitionable in the active
/// subgraph — 0 when even tau_cap fails (or a CB edge is not active).
/// Monotone in τ, so binary search.
/// The granularity knob read at runtime: coverage degrades gracefully from
/// fine to coarse confine sizes as nodes die (Section III-C's configurable
/// granularity, inverted into a measurement).
unsigned smallest_certifiable_tau(const graph::Graph& g,
                                  const std::vector<bool>& active,
                                  const util::Gf2Vector& cb_sum,
                                  unsigned tau_cap);

/// Definition 6 audit: the active set is non-redundant for τ-confine
/// coverage iff the criterion holds and deleting any single active internal
/// node breaks it. Exhaustive (one whole-graph criterion test per node) —
/// test/bench-scale tool.
struct NonRedundancyReport {
  bool criterion_holds = false;
  bool non_redundant = false;
  /// Active internal nodes whose individual removal keeps CB τ-partitionable.
  std::vector<graph::VertexId> redundant_nodes;
};

NonRedundancyReport check_non_redundancy(const graph::Graph& g,
                                         const std::vector<bool>& active,
                                         const std::vector<bool>& internal,
                                         const util::Gf2Vector& cb_sum,
                                         unsigned tau);

}  // namespace tgc::core
