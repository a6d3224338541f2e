#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tgcover/sim/engine.hpp"

namespace tgc::sim {

/// Length in words of the record that opens `rest`; `rest` runs from the
/// record's first word (its origin id) to the end of the message or pool
/// holding it. Fixed-size records ignore it; counted records read a header.
using RecordSize = std::size_t (*)(std::span<const std::uint32_t> rest);

/// The one k-hop flood of the distributed protocol (Section V-B): the k-hop
/// collection, the MIS priority and block-notice floods and the deletion
/// announcement all run on it.
///
/// A record is a run of payload words whose first word is its origin id
/// (a vertex id); `size` gives its length. On entry `held[v]` holds node
/// v's own records back to back. Round 0 broadcasts them; in each round
/// r ≤ `radius` a node keeps the first copy of every origin it does not hold
/// yet, appending it to `held[v]`, and for r < `radius` broadcasts what it
/// learned in that round as one message of `type`. No record is ever sent
/// twice by one node. On return `held[v]` is v's own records followed by
/// the first copy of each record seeded within `radius` hops of v (over the
/// active topology) under a new origin, in learn order. Each round is marked
/// by a kWave trace event whose type is `type`.
void flood(SyncRunner& runner, std::vector<std::vector<std::uint32_t>>& held,
           unsigned radius, std::uint32_t type, RecordSize size);

}  // namespace tgc::sim
