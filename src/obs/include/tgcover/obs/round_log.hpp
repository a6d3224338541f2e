#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "tgcover/obs/obs.hpp"

namespace tgc::obs {

/// One DCC deletion round, as accounted by the scheduler. `round` is the
/// run's round index (monotonic across repair waves, which re-enter the
/// scheduler several times within one RunScope); the counter/timer activity
/// is the registry delta across the round, so it includes everything the
/// round's verdicts triggered transitively — BFS expansions, Horton
/// candidates, GF(2) pivots, simulated messages. `delta.cost` is the round's
/// per-phase logical-cost profile.
struct RoundEvent {
  std::uint64_t round = 0;       ///< the run's round index, 1-based
  std::uint64_t active = 0;      ///< awake nodes after the round's deletions
  std::uint64_t candidates = 0;  ///< nodes whose VPT test passed
  std::uint64_t deleted = 0;     ///< MIS size actually deleted
  Metrics delta;                 ///< registry activity during the round
};

/// Per-run accounting: the executors report round boundaries (round_begin /
/// round_end below), the collector takes one registry snapshot at each and
/// buffers one RoundEvent per round plus run totals. Single-threaded by
/// design — it is driven from the round loop only (the *workers* report
/// through the registry shards).
class RoundCollector {
 public:
  /// Captures the baseline snapshot; run totals are measured from here.
  RoundCollector();

  /// Marks the start of a round (stashes a snapshot). A begin without a
  /// matching end — the fixpoint round that finds no candidates — is simply
  /// overwritten by the next begin and never emits an event.
  void begin_round();

  /// Closes the round opened by the last `begin_round` and buffers its
  /// event. `active` is the awake mask after this round's deletions.
  void end_round(std::uint64_t round, const std::vector<bool>& active,
                 std::uint64_t candidates, std::uint64_t deleted);

  /// Freezes the run totals and the wall clock. Call once, after the
  /// schedule/repair returns; `survivors` lands in the summary record.
  void finalize(std::uint64_t survivors);

  const std::vector<RoundEvent>& events() const { return events_; }
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
  /// identical across machines, thread counts and log levels for a given
  /// input/seed.
  void write_cost_jsonl(std::ostream& out) const;

 private:
  Metrics baseline_;
  Metrics round_start_;
  std::uint64_t t0_ns_ = 0;
  std::uint64_t wall_ns_ = 0;  // frozen by finalize
  std::uint64_t survivors_ = 0;
  bool finalized_ = false;
  Metrics final_totals_;
  std::vector<RoundEvent> events_;
};

// ------------------------------------------------------ the run binding

class NodeTelemetry;
class QualityAuditor;

/// The per-round collectors of one run; any may be null.
struct RunCollectors {
  RoundCollector* rounds = nullptr;
  NodeTelemetry* nodes = nullptr;
  QualityAuditor* quality = nullptr;
};

/// Binds `collectors` to the calling thread and restarts the run's round
/// index at 0; the destructor unbinds them (scopes do not nest). The thread
/// that drives the executor holds the scope: all sim messaging runs there
/// (pool workers only evaluate verdicts, which send and report nothing), and
/// a fleet cell runs whole on one worker under its own scope, so no hook
/// ever races. The scope must not outlive the collectors it binds. Unbound,
/// each hook costs one thread_local load.
class RunScope {
 public:
  explicit RunScope(RunCollectors collectors);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
};

/// The round boundaries of the bound run. Executors call `round_begin` at
/// the top of every round attempt (a fixpoint probe that deletes nothing
/// never reaches `round_end`) and `round_end` once per deletion round with
/// the awake mask after its deletions. `round_end` advances the run's one
/// index, so rounds are numbered 1..R across every executor call in the
/// scope (repair waves continue the count), and hands it to every bound
/// collector and, when profiling, to `profile_round` plus a memory sample.
/// Arming perturbs nothing: no hook is ever consulted for a decision.
void round_begin();
void round_end(const std::vector<bool>& active, std::uint64_t candidates,
               std::uint64_t deleted);

/// The distributed executor's k-hop setup boundary, reported as round 0 to
/// the node and quality collectors (the setup flood and the pre-deletion
/// coverage baseline); the round collector and the profiler see no round.
void setup_end(const std::vector<bool>& active);

}  // namespace tgc::obs
