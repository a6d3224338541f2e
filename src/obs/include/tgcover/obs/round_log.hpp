#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "tgcover/obs/obs.hpp"

namespace tgc::obs {

/// One DCC deletion round, as accounted by the scheduler. `round` is
/// assigned by the collector (monotonic across repair waves, which re-enter
/// the scheduler several times on one collector); the counter/span activity
/// is the registry delta across the round, so it includes everything the
/// round's verdicts triggered transitively — BFS expansions, Horton
/// candidates, GF(2) pivots, simulated messages.
struct RoundEvent {
  std::uint64_t round = 0;       ///< 1-based sequence number in this run
  std::uint64_t active = 0;      ///< awake nodes after the round's deletions
  std::uint64_t candidates = 0;  ///< nodes whose VPT test passed
  std::uint64_t deleted = 0;     ///< MIS size actually deleted
  Metrics delta;                 ///< registry activity during the round
};

/// Per-run accounting: the scheduler reports round boundaries, the collector
/// snapshots the registry at each and buffers one RoundEvent per round plus
/// run totals, keeping an obs::CostModel in lockstep so every round also has
/// a per-phase logical-cost profile. Single-threaded by design — it is
/// driven from the scheduler loop only (the *workers* report through the
/// registry shards).
///
/// The collector works with the span timers compiled out too (TGC_OBS=OFF):
/// ns_* deltas are all zero then, but the logical counters and the
/// scheduler-provided fields (active/candidates/deleted) still populate, so
/// JSONL output, `tgcover report`, and `tgcover compare` stay byte-identical
/// on the logical columns across build flavours.
class RoundCollector {
 public:
  /// Captures the baseline snapshot; run totals are measured from here.
  RoundCollector();

  /// Marks the start of a round (stashes a snapshot). A begin without a
  /// matching end — the fixpoint round that finds no candidates — is simply
  /// overwritten by the next begin and never emits an event.
  void begin_round();

  /// Closes the round opened by the last `begin_round` and buffers its
  /// event. `active` is the awake count after this round's deletions.
  void end_round(std::uint64_t active, std::uint64_t candidates,
                 std::uint64_t deleted);

  /// Freezes the run totals and the wall clock. Call once, after the
  /// schedule/repair returns; `survivors` lands in the summary record.
  void finalize(std::uint64_t survivors);

  const std::vector<RoundEvent>& events() const { return events_; }
  /// Per-round, per-phase logical-cost profiles (aligned with events()).
  const CostModel& cost() const { return cost_; }
  /// Registry activity from construction to `finalize` (to now, if not yet
  /// finalized).
  Metrics totals() const;
  std::uint64_t wall_ns() const;
  std::uint64_t survivors() const { return survivors_; }

  /// Emits one JSONL record per round, the per-phase "cost" records, and a
  /// trailing summary record — a bundle's metrics.jsonl (see
  /// DESIGN.md §8/§10 for the schema).
  void write_jsonl(std::ostream& out) const;

  /// Emits only the machine-independent records: per-round per-phase "cost"
  /// lines plus "cost_total" lines. This is a bundle's cost.jsonl, byte-
  /// identical across machines, thread counts, log levels, and TGC_OBS build
  /// flavours for a given input/seed.
  void write_cost_jsonl(std::ostream& out) const;

 private:
  Metrics baseline_;
  CostModel cost_;
  Metrics round_start_;
  std::uint64_t t0_ns_ = 0;
  std::uint64_t wall_ns_ = 0;  // frozen by finalize
  std::uint64_t survivors_ = 0;
  bool finalized_ = false;
  Metrics final_totals_;
  std::vector<RoundEvent> events_;
};

}  // namespace tgc::obs
