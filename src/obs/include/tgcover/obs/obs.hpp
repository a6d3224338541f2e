#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "tgcover/obs/cost.hpp"

namespace tgc::obs {

/// Merged view of one phase's timer: how often a PhaseScope of it ran and
/// its total inclusive nanoseconds.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
};

/// A merged snapshot of every registry shard: the counters by phase plus the
/// phase timers. Both are monotonic, so the component-wise difference of two
/// snapshots is the exact activity between them — the round log is built
/// entirely from such deltas.
struct Metrics {
  CostSnapshot cost;
  std::array<SpanTotals, kNumPhases> spans{};

  /// One counter summed over phases.
  std::uint64_t get(CounterId id) const {
    std::uint64_t n = 0;
    for (const CostVec& p : cost.phases) n += p.get(id);
    return n;
  }
  const SpanTotals& span(CostPhase phase) const {
    return spans[static_cast<std::size_t>(phase)];
  }

  Metrics& operator-=(const Metrics& rhs);
  friend Metrics operator-(Metrics lhs, const Metrics& rhs) {
    lhs -= rhs;
    return lhs;
  }
};

/// Old name of CostPhase, still read by perfbench/driver.cpp.
using SpanId = CostPhase;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Merges every shard under the registry lock — the one merge behind both
/// this and cost_snapshot(). Safe to call while other threads keep counting;
/// the result is a consistent-enough monotonic view (per-slot atomic reads).
Metrics snapshot();

/// The one phase scope: every DCC phase site is one of these. For its
/// lifetime it
///  * attributes every thread's work units to `phase` (restoring the
///    previous phase on exit, so scopes nest: dcc_repair opens kRepairWave
///    and the scheduler phases it re-enters override inside), which also
///    drops the profiler's phase instants;
///  * when telemetry was on at entry, adds one run and its inclusive
///    nanoseconds to the phase's timer (Metrics::span) — the enabled flag is
///    captured once, so a runtime toggle never half-records a scope;
///  * given the round substrate's round counter, emits trace phase_begin at
///    open and phase_end at close with `type` = the phase, each stamped with
///    the counter's value at that moment.
/// Installed at fork-join boundaries only (phase transitions happen with
/// all workers quiescent), so the single process-wide phase slot is
/// race-free in practice and attribution is identical at every thread
/// count.
class PhaseScope {
 public:
  explicit PhaseScope(CostPhase phase,
                      const std::size_t* round_clock = nullptr);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  CostPhase phase_;
  CostPhase prev_;
  const std::size_t* round_clock_;
  std::uint64_t start_ns_ = 0;
  bool timed_;
};

}  // namespace tgc::obs
