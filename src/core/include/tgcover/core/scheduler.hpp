#pragma once

#include <cstdint>
#include <vector>

#include "tgcover/core/vpt.hpp"
#include "tgcover/graph/graph.hpp"

namespace tgc::core {

/// Configuration of a DCC scheduling run.
struct DccConfig {
  /// Confine size; the local radius is the minimum legal k = ⌈τ/2⌉.
  unsigned tau = 3;
  /// Seed for the per-round MIS priorities. The oracle and distributed
  /// executors produce identical schedules for identical seeds.
  std::uint64_t seed = 1;
  /// Optional fixed per-node MIS priorities (higher = deleted earlier),
  /// overriding the seeded random ones. Used by the energy-aware lifetime
  /// scheduler. Oracle executor only; must be empty for the distributed one.
  std::vector<std::uint64_t> mis_priorities;
  /// Worker threads for the Step-1 VPT verdict fan-out (0 = hardware
  /// concurrency, 1 = fully serial). Verdicts are pure functions of the
  /// pre-round active snapshot, so the schedule is bit-identical for every
  /// value — this knob only changes wall-clock (see DESIGN.md §7).
  unsigned num_threads = 1;

  VptConfig vpt() const { return VptConfig{tau, 0}; }
};

struct DccRoundInfo {
  std::size_t candidates = 0;  ///< nodes whose VPT test passed this round
  std::size_t deleted = 0;     ///< MIS size actually deleted
};

struct DccResult {
  std::vector<bool> active;  ///< surviving nodes (the coverage set)
  std::size_t survivors = 0;
  std::size_t deleted = 0;
  std::size_t rounds = 0;
  std::vector<DccRoundInfo> per_round;
  std::size_t vpt_tests = 0;  ///< VPT evaluations performed
  /// Verdicts reused from an earlier round of the same call instead of
  /// re-evaluated: every executor caches verdicts across rounds and
  /// re-tests only the nodes whose punctured k-hop ball a deletion wave
  /// touched (DESIGN.md §11). No verdict outlives the call.
  std::size_t cache_hits = 0;
};

/// DCC — the paper's distributed confine-coverage scheduling (Section V-B) —
/// executed by the centralized *oracle*: the exact deletion fixpoint of the
/// distributed protocol (same VPT verdicts, same MIS priorities, same
/// per-round deletions) computed without simulating messages. Use this for
/// large parameter sweeps; `dcc_schedule_distributed` runs the real
/// message-passing protocol and is proven equivalent by tests.
///
/// `internal[v]` marks deletable nodes; boundary nodes (and cone-filled
/// boundary nodes / apexes in the multiply-connected case) must be false.
DccResult dcc_schedule(const graph::Graph& g, const std::vector<bool>& internal,
                       const DccConfig& config);

/// Variant starting from a given awake set instead of the full network —
/// nodes outside `initial_active` are treated as already asleep (they do not
/// relay and are not counted as deleted). Powers incremental re-scheduling
/// (see repair.hpp).
DccResult dcc_schedule_from(const graph::Graph& g,
                            const std::vector<bool>& internal,
                            const std::vector<bool>& initial_active,
                            const DccConfig& config);

}  // namespace tgc::core
