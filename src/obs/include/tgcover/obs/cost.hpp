#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

/// The telemetry registry: machine-independent work-unit counters and the
/// phase span timers, kept in one per-thread shard.
///
/// Logical units (VPT tests, BFS expansions, Horton candidates, GF(2)
/// pivots, simulated messages) are deterministic functions of the input and
/// seed, so their per-round, per-phase profiles are byte-identical across
/// machines, thread counts and log levels. That invariant is what
/// tools/bench_gate.py hard-fails on (see DESIGN.md §10); the span timers
/// (obs.hpp) are wall-clock and advisory everywhere.

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

/// Scoped-timer identities (obs.hpp's Span). Each span id owns a run count
/// and a nanosecond sum per thread shard; per-phase nanoseconds in the round
/// log are deltas of the sums.
enum class SpanId : unsigned {
  kVerdicts,     ///< DCC Step 1: the per-round VPT verdict fan-out
  kMis,          ///< DCC Step 2: m-hop MIS election
  kDeletion,     ///< DCC Step 3: deletion + dirty propagation
  kKhopCollect,  ///< distributed executor: k-hop view collection
  kRepairWave,   ///< one wake-radius escalation of dcc_repair
  kCount
};
inline constexpr std::size_t kNumSpans =
    static_cast<std::size_t>(SpanId::kCount);

/// Snake_case names used as JSONL keys and table headers.
std::string_view span_name(SpanId id);

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

/// Registry counters split by phase. `total()` collapses the phase axis.
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

/// One thread's slice of the registry: work units by phase plus each span's
/// run count and nanosecond sum. Slots are relaxed atomics so the owning
/// thread's increments never race the merging reader; there is no
/// cross-thread write sharing at all (one shard per thread, registered on
/// first touch and kept for the life of the process so totals survive
/// worker exit).
struct Shard {
  struct SpanSlot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<std::array<std::atomic<std::uint64_t>, kNumCounters>, kNumPhases>
      units{};
  std::array<SpanSlot, kNumSpans> spans{};
};

Shard& local_shard();
std::atomic<bool>& enabled_flag();
std::atomic<unsigned>& current_phase_slot();

}  // namespace detail

/// Runtime master switch (default off) for the counters and the span timers.
/// Disabled, every instrumentation site costs one relaxed bool load and a
/// predicted-untaken branch.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Adds `delta` to the calling thread's shard under the current phase. Hot
/// loops batch into a local and call this once per kernel invocation, not
/// once per element.
inline void add(CounterId id, std::uint64_t delta) {
  if (!enabled()) return;
  const unsigned phase =
      detail::current_phase_slot().load(std::memory_order_relaxed);
  detail::local_shard()
      .units[phase][static_cast<std::size_t>(id)]
      .fetch_add(delta, std::memory_order_relaxed);
}

/// The counters of obs::snapshot() (obs.hpp), by phase.
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

}  // namespace tgc::obs
