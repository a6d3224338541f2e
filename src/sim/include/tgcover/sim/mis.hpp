#pragma once

#include <cstdint>
#include <vector>

#include "tgcover/graph/graph.hpp"
#include "tgcover/sim/engine.hpp"

namespace tgc::sim {

/// Deterministic per-node random priority for an election identified by
/// `seed`. Both the distributed protocol and the centralized oracle derive
/// priorities from this, which is what makes the two executors produce
/// bit-identical schedules.
std::uint64_t mis_priority(std::uint64_t seed, graph::VertexId v);

struct MisOutcome {
  std::vector<bool> selected;
  std::size_t subrounds = 0;  ///< Luby iterations used (distributed only)
};

/// Distributed m-hop MIS election (Section V-B: "a m-hop maximal independent
/// set among these candidate nodes is randomly selected from the networks in
/// a distributed manner"). Selected candidates are pairwise more than
/// `radius` hops apart in the active topology; the set is maximal (every
/// unselected candidate is within `radius` hops of a selected one).
///
/// Fixed-priority Luby dynamics: in each iteration the unresolved candidates
/// flood their priorities `radius` hops; local maxima join the MIS and flood
/// a block notice `radius` hops; repeats until all candidates are resolved.
/// Both are `sim::flood`s (flood.hpp) of records [origin, priority hi,
/// priority lo], message types 10 and 11. The result equals greedy
/// selection in descending priority order.
MisOutcome elect_mis_distributed(SyncRunner& runner,
                                 const std::vector<bool>& candidate,
                                 unsigned radius, std::uint64_t seed);

/// Centralized oracle computing the identical selected set: candidates in
/// descending (priority, then ascending id) order, selecting whenever no
/// previously selected candidate lies within `radius` hops of the active
/// graph. `active` masks the relay topology.
std::vector<bool> elect_mis_oracle(const graph::Graph& g,
                                   const std::vector<bool>& active,
                                   const std::vector<bool>& candidate,
                                   unsigned radius, std::uint64_t seed);

/// Oracle variant with explicit per-node priorities (greedy descending, ties
/// toward the smaller id). Lets callers bias the election — e.g. the
/// energy-aware lifetime scheduler prefers putting low-battery nodes to
/// sleep first by handing them larger priorities.
std::vector<bool> elect_mis_oracle_with_priorities(
    const graph::Graph& g, const std::vector<bool>& active,
    const std::vector<bool>& candidate, unsigned radius,
    const std::vector<std::uint64_t>& priorities);

}  // namespace tgc::sim
