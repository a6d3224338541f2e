#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "tgcover/obs/cost.hpp"

/// The parallel-execution profiler (DESIGN.md §13): per-worker event rings
/// plus peak-RSS samples, recorded inside util::ThreadPool and at the run's
/// round boundaries (obs::round_end) and exported as a manifest-headed JSONL
/// stream (a bundle's profile.jsonl) or Perfetto/Chrome per-worker tracks.
///
/// Where the logical-cost counters (cost.hpp) answer "how much work ran",
/// the profiler answers "where the wall clock went while it ran": task
/// execution vs pool idle vs fork-join barrier stall, per worker lane and
/// per protocol phase. Everything here is wall-clock and therefore
/// machine-dependent by nature — profile streams are never byte-compared;
/// the *logical* profile columns (per-phase item totals, round counts) are
/// thread-invariant and exact-gated by tools/bench_gate.py --profile.
///
/// Concurrency model. Each worker lane is a single-writer ring: a thread
/// registers its lane id once (profile_set_lane — util::ThreadPool does this
/// for its spawned workers, profile_begin for the driver thread) and every
/// emission lands in the calling thread's own lane, so recording takes no
/// locks and no atomics on the hot path. Lane reuse across successive pools
/// (repair waves construct one pool per wave) is ordered by the pools' own
/// join/condvar handshakes, and profile_end runs at quiescence, after the
/// last pool completed — the same happens-before edges the schedules
/// themselves rely on. The cross-thread session counters go through relaxed
/// atomics and the rare memory samples through a mutex-guarded vector.
///
/// Rings wrap: when a lane overflows its capacity (1<<15 events) the oldest
/// events are overwritten and counted as dropped, while the per-lane summary
/// accumulators stay exact — a truncated timeline never corrupts the
/// utilization/phase totals.
///
/// Runtime-gated by profile_active(), so a run without `--obs profile` pays
/// one relaxed load per pool chunk and nothing else.

namespace tgc::obs {

// ------------------------------------------------------------ event model

enum class ProfKind : std::uint8_t {
  kTask,     ///< one contiguous chunk of parallel_for body executions
  kIdle,     ///< pool worker waiting for work (dequeue wait between jobs)
  kBarrier,  ///< the caller draining workers at the fork-join end
  kFork,     ///< one whole parallel_for region, recorded on the caller lane
  kPhase,    ///< instant: the cost phase changed (value = new phase)
  kRound,    ///< instant: a deletion round ended (value = run's index)
  kCount
};
inline constexpr std::size_t kNumProfKinds =
    static_cast<std::size_t>(ProfKind::kCount);

std::string_view prof_kind_name(ProfKind kind);

/// One recorded interval (or instant: dur_ns == 0). Timestamps are steady
/// nanoseconds relative to profile_begin.
struct ProfileEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t value = 0;  ///< items for task/fork, phase/round for instants
  std::uint8_t phase = static_cast<std::uint8_t>(CostPhase::kOther);
  ProfKind kind = ProfKind::kTask;
};

/// One worker lane's drained ring plus its exact summary accumulators.
struct WorkerProfile {
  std::vector<ProfileEvent> events;  ///< oldest -> newest after the drain
  std::uint64_t dropped = 0;         ///< ring overwrites (timeline truncated)
  std::uint64_t tasks = 0;           ///< pool chunks executed
  std::uint64_t items = 0;           ///< loop indices executed
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::array<std::uint64_t, kNumPhases> phase_tasks{};
  std::array<std::uint64_t, kNumPhases> phase_items{};
  std::array<std::uint64_t, kNumPhases> phase_busy_ns{};
};

// ------------------------------------------------------- memory telemetry

/// One periodic memory observation (round ends, fleet run ends).
struct MemorySample {
  std::uint64_t t_ns = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< getrusage high-water (monotone)
};

struct MemoryTelemetry {
  std::uint64_t peak_rss_begin_bytes = 0;
  std::uint64_t peak_rss_end_bytes = 0;
  std::vector<MemorySample> samples;
};

// ----------------------------------------------------------- the profile

/// Everything one profile session captured, drained at profile_end.
struct ProfileData {
  std::uint64_t wall_ns = 0;      ///< profile_begin -> profile_end
  std::uint64_t parallel_ns = 0;  ///< sum of fork-region durations
  std::uint64_t forks = 0;
  std::uint64_t rounds = 0;
  /// Emissions from threads with no registered lane (or a lane beyond the
  /// session's worker count) — counted, never silently lost.
  std::uint64_t off_lane_events = 0;
  unsigned hardware_concurrency = 0;
  std::size_t ring_capacity = 0;
  std::vector<WorkerProfile> workers;
  MemoryTelemetry memory;

  /// True when any lane overwrote events (ring wraparound).
  bool truncated() const;
  std::uint64_t total_busy_ns() const;
  std::uint64_t total_items() const;
  /// Mean worker busy fraction: sum(busy) / (workers * wall). In [0, 1].
  double utilization() const;
  /// Amdahl serial fraction s = (wall - parallel) / wall: the share of the
  /// run spent outside any fork-join region. In [0, 1].
  double serial_fraction() const;
  /// Amdahl's bound 1 / (s + (1 - s) / n) for the measured serial fraction.
  double predicted_speedup(unsigned n) const;
};

// ------------------------------------------------------------ the session

/// True while a session is open. The hot-path gate: one relaxed-ish
/// (acquire) load, branch predicted untaken when profiling is off.
bool profile_active();

/// Opens a session recording `workers` lanes (clamped to >= 1). The calling
/// thread becomes lane 0 (the driver). `ring_capacity` 0 picks the default
/// (1<<15 per lane); tests pass a small one to force wraparound. A second
/// begin while a session is open is ignored.
void profile_begin(unsigned workers, std::size_t ring_capacity = 0);

/// Closes the session and drains every lane. Must be called at quiescence
/// (all pools joined or idle) — the CLI calls it after the scheduled run
/// returns. Returns an empty ProfileData when no session was open.
ProfileData profile_end();

/// Registers the calling thread as `lane`. util::ThreadPool calls this from
/// each spawned worker (lane = pool worker index); profile_begin registers
/// the driver as lane 0. Unregistered threads' emissions are counted as
/// off-lane and dropped.
void profile_set_lane(unsigned lane);

// ------------------------------------------------- emission (hot path)
// All no-ops when no session is open. Interval emitters take absolute
// obs::now_ns() timestamps; the session rebases them.

void profile_task(std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t items);
void profile_idle(std::uint64_t start_ns, std::uint64_t dur_ns);
void profile_barrier(std::uint64_t start_ns, std::uint64_t dur_ns);
void profile_fork(std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t items);
/// Instant: deletion round `round` (the run's index, obs::round_end)
/// completed.
void profile_round(std::uint64_t round);

/// Appends one MemorySample (peak RSS). Mutex-guarded; call at coarse
/// boundaries (round/run ends), not in hot loops.
void profile_mem_sample();

/// Current process peak RSS in bytes via getrusage (0 where unsupported).
/// Monotone non-decreasing over the life of the process.
std::uint64_t peak_rss_bytes();

namespace detail {
/// Called whenever a PhaseScope changes the current phase, so phase
/// transitions land in the timeline as instant events on the calling
/// thread's lane.
void profile_on_phase_change(CostPhase phase);
}  // namespace detail

// ------------------------------------------------------------ exporters

/// The profile JSONL stream body (the CLI writes the manifest header line
/// first): profile_header, per-worker event lines, worker/phase summaries,
/// memory samples + summary, and a closing profile_summary line.
void write_profile_jsonl(const ProfileData& data, std::ostream& out);

/// Chrome/Perfetto trace-event JSON: per-worker tracks under pid 2 (the
/// causal node traces of trace_export.cpp own pid 1, so a fused view shows
/// protocol causality next to pool execution), instant phase/round marks,
/// and a counter track for peak RSS.
void write_profile_chrome_trace(const ProfileData& data, std::ostream& out);

}  // namespace tgc::obs
