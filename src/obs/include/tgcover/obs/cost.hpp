#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

/// The logical cost model: machine-independent work-unit accounting.
///
/// Unlike the span timers in obs.hpp, everything here is ALWAYS compiled —
/// `-DTGC_OBS=OFF` removes wall-clock instrumentation only. Logical units
/// (VPT tests, BFS expansions, Horton candidates, GF(2) pivots, simulated
/// messages) are deterministic functions of the input and seed, so their
/// per-round, per-phase profiles are byte-identical across machines, thread
/// counts, log levels, and the TGC_OBS build flavour. That invariant is what
/// tools/bench_gate.py hard-fails on (see DESIGN.md §10); wall-clock numbers
/// are advisory everywhere.

namespace tgc::obs {

/// The process-wide monotonic work-unit counters. Fixed at compile time: an
/// enum slot costs 8 bytes per thread shard per phase and one name-table
/// entry, so counters are cheap to add (see DESIGN.md §8) but deliberately
/// not dynamic — the hot path indexes a flat array, no hashing, no
/// registration handshake.
enum class CounterId : unsigned {
  kVptTests,          ///< VPT deletability evaluations (vertex, local, edge)
  kVptDeletable,      ///< ... of which answered "deletable"
  kVptVetoed,         ///< ... of which answered "not deletable"
  kBfsExpansions,     ///< vertices discovered by k-hop BFS frontiers
  kHortonCandidates,  ///< Horton candidate cycles generated / considered
  kGf2Pivots,         ///< GF(2) pivot-elimination XOR steps
  kMessages,          ///< radio messages simulated by the sim engines
  kPayloadWords,      ///< 32-bit payload words carried by those messages
  kRepairWaves,       ///< wake-radius escalations performed by dcc_repair
  kMessagesLost,      ///< transmissions lost on the air (AsyncEngine)
  kRetransmissions,   ///< α-synchronizer retransmissions of unacked messages
  kVerdictCacheHits,  ///< VPT verdicts reused from the cross-round cache
  kDirtyNodes,        ///< nodes re-marked dirty by deletion/wake frontiers
  kBallViewBytes,     ///< logical bytes of punctured ball views materialized
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(CounterId::kCount);

/// Snake_case counter names used as JSONL keys and table headers.
std::string_view counter_name(CounterId id);

/// The protocol phase a work unit is attributed to. Phases are fork-join
/// sequential (the scheduler moves through them one at a time and workers
/// are quiescent at every transition), so a single process-wide current
/// phase gives deterministic attribution at any thread count.
enum class CostPhase : unsigned {
  kVerdicts,  ///< DCC Step 1: VPT verdict fan-out
  kMis,       ///< DCC Step 2: m-hop MIS election
  kDeletion,  ///< DCC Step 3: deletion + dirty propagation
  kKhop,      ///< distributed executor: k-hop view collection
  kRepair,    ///< dcc_repair wake-radius escalation (outside nested phases)
  kOther,     ///< work outside any declared phase
  kCount
};
inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(CostPhase::kCount);

std::string_view cost_phase_name(CostPhase phase);

/// One vector of work-unit tallies — a point (or delta) in logical-cost
/// space. Component-wise arithmetic only; no wall-clock anywhere.
struct CostVec {
  std::array<std::uint64_t, kNumCounters> units{};

  std::uint64_t get(CounterId id) const {
    return units[static_cast<std::size_t>(id)];
  }
  bool is_zero() const {
    for (const std::uint64_t u : units) {
      if (u != 0) return false;
    }
    return true;
  }

  CostVec& operator+=(const CostVec& rhs) {
    for (std::size_t i = 0; i < kNumCounters; ++i) units[i] += rhs.units[i];
    return *this;
  }
  CostVec& operator-=(const CostVec& rhs) {
    for (std::size_t i = 0; i < kNumCounters; ++i) units[i] -= rhs.units[i];
    return *this;
  }
  friend CostVec operator+(CostVec lhs, const CostVec& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend CostVec operator-(CostVec lhs, const CostVec& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend bool operator==(const CostVec& a, const CostVec& b) {
    return a.units == b.units;
  }
};

/// The scalar the bench gate and `tgcover report` rank runs by: one unit of
/// logical cost per primitive operation. Sub-counts (deletable/vetoed are a
/// partition of tests, lost is a subset of messages) and payload_words (a
/// different unit) are excluded to avoid double counting — see DESIGN.md §10.
/// The incremental-round bookkeeping counters (verdict_cache_hits,
/// dirty_nodes, ball_view_bytes) are likewise excluded: hits and dirty marks
/// describe work *avoided* or re-queued, not performed, and bytes are a
/// memory unit — all three remain machine-independent and exact-match gated
/// as their own bench columns.
std::uint64_t logical_cost(const CostVec& v);

/// Registry state split by phase. `total()` collapses the phase axis and is
/// what Metrics::counters is built from.
struct CostSnapshot {
  std::array<CostVec, kNumPhases> phases{};

  const CostVec& phase(CostPhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  CostVec total() const {
    CostVec t;
    for (const CostVec& p : phases) t += p;
    return t;
  }
  CostSnapshot& operator-=(const CostSnapshot& rhs) {
    for (std::size_t i = 0; i < kNumPhases; ++i) phases[i] -= rhs.phases[i];
    return *this;
  }
  friend CostSnapshot operator-(CostSnapshot lhs, const CostSnapshot& rhs) {
    lhs -= rhs;
    return lhs;
  }
};

namespace detail {

/// One thread's slice of the cost registry (same never-reclaimed sharding
/// scheme as the span registry in obs.hpp: one shard per thread, relaxed
/// atomics, merged under a mutex by cost_snapshot()).
struct CostShard {
  std::array<std::array<std::atomic<std::uint64_t>, kNumCounters>, kNumPhases>
      units{};
};

CostShard& local_cost_shard();
std::atomic<bool>& cost_enabled_flag();
std::atomic<unsigned>& current_phase_slot();

}  // namespace detail

/// Runtime master switch (default off) shared by the cost counters and the
/// span timers. Disabled, every instrumentation site costs one relaxed bool
/// load and a predicted-untaken branch.
inline bool enabled() {
  return detail::cost_enabled_flag().load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Adds `delta` to the calling thread's shard under the current phase. Hot
/// loops batch into a local and call this once per kernel invocation, not
/// once per element.
inline void add(CounterId id, std::uint64_t delta) {
  if (!enabled()) return;
  const unsigned phase =
      detail::current_phase_slot().load(std::memory_order_relaxed);
  detail::local_cost_shard()
      .units[phase][static_cast<std::size_t>(id)]
      .fetch_add(delta, std::memory_order_relaxed);
}

/// Merges every shard under the registry lock. Safe to call while other
/// threads keep counting; the result is a consistent-enough monotonic view
/// (per-slot atomic reads).
CostSnapshot cost_snapshot();

/// The calling thread's shard only, summed over phases. Because shards are
/// strictly thread-local, the delta of two calls brackets exactly the work
/// this thread performed in between — no other thread can perturb it. This
/// is how the fleet runner attributes counters to a run: each campaign run
/// executes single-threaded on one pool worker, so the bracketing delta is
/// that run's exact total even while sibling workers count concurrently.
CostVec local_cost_totals();

CostPhase current_phase();
void set_current_phase(CostPhase phase);

/// RAII phase attribution. Installed at fork-join boundaries only (scheduler
/// phase transitions happen with all workers quiescent), so the single
/// process-wide slot is race-free in practice and attribution is identical
/// at every thread count. Nests: dcc_repair opens kRepair, and the scheduler
/// phases it re-enters override inside.
class CostPhaseScope {
 public:
  explicit CostPhaseScope(CostPhase phase) : prev_(current_phase()) {
    set_current_phase(phase);
  }
  ~CostPhaseScope() { set_current_phase(prev_); }
  CostPhaseScope(const CostPhaseScope&) = delete;
  CostPhaseScope& operator=(const CostPhaseScope&) = delete;

 private:
  CostPhase prev_;
};

/// Exactly reverts whatever cost-counter activity the calling thread
/// performs during the scope's lifetime. Shards are strictly thread-local
/// (the same argument that makes `local_cost_totals` bracketing exact), so
/// snapshotting every phase×counter slot at construction and subtracting the
/// delta at destruction cancels the scope's contribution without touching
/// any other thread's tallies. This is how observation probes may re-enter
/// counted kernels (Horton search, GF(2) elimination) purely to *measure*
/// solution quality: the measurement must not perturb the gated cost stream.
/// Single-threaded scopes only — work the scope hands to other threads is
/// not reverted.
class CostAuditScope {
 public:
  CostAuditScope();
  ~CostAuditScope();
  CostAuditScope(const CostAuditScope&) = delete;
  CostAuditScope& operator=(const CostAuditScope&) = delete;

 private:
  std::array<std::array<std::uint64_t, kNumCounters>, kNumPhases> before_{};
};

/// One round's per-phase logical-cost delta.
struct CostProfile {
  std::uint64_t round = 0;  ///< 1-based, aligned with RoundEvent::round
  CostSnapshot delta;       ///< registry activity during the round, by phase
};

/// Per-run logical-cost accounting: snapshot at round boundaries, buffer one
/// CostProfile per round plus run totals. Driven from the scheduler loop
/// (single-threaded by design) — RoundCollector owns one and keeps it in
/// lockstep with its RoundEvents.
class CostModel {
 public:
  /// Captures the baseline snapshot; run totals are measured from here.
  CostModel();

  /// Stashes a snapshot for the round about to run. A begin without a
  /// matching end is overwritten by the next begin and never emits a record.
  void begin_round();

  /// Closes the round opened by the last `begin_round` and buffers its
  /// per-phase profile.
  void end_round();

  /// Freezes the run totals. Call once, after the schedule/repair returns.
  void finalize();

  const std::vector<CostProfile>& profiles() const { return profiles_; }
  /// Per-phase activity from construction to `finalize` (to now, if not yet
  /// finalized).
  CostSnapshot totals() const;

 private:
  CostSnapshot baseline_;
  CostSnapshot round_start_;
  CostSnapshot final_totals_;
  bool finalized_ = false;
  std::vector<CostProfile> profiles_;
};

}  // namespace tgc::obs
