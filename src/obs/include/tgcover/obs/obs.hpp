#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "tgcover/obs/cost.hpp"

namespace tgc::obs {

/// Merged view of one span: how often it ran and its total nanoseconds.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
};

/// A merged snapshot of every registry shard: the counters by phase plus the
/// span totals. Both are monotonic, so the component-wise difference of two
/// snapshots is the exact activity between them — the round log is built
/// entirely from such deltas.
struct Metrics {
  CostSnapshot cost;
  std::array<SpanTotals, kNumSpans> spans{};

  /// One counter summed over phases.
  std::uint64_t get(CounterId id) const {
    std::uint64_t n = 0;
    for (const CostVec& p : cost.phases) n += p.get(id);
    return n;
  }
  const SpanTotals& span(SpanId id) const {
    return spans[static_cast<std::size_t>(id)];
  }

  Metrics& operator-=(const Metrics& rhs);
  friend Metrics operator-(Metrics lhs, const Metrics& rhs) {
    lhs -= rhs;
    return lhs;
  }
};

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

namespace detail {
int& span_depth_slot();
}  // namespace detail

/// Records one span duration (used by ~Span; exposed for tests).
void record_span(SpanId id, std::uint64_t ns);

/// Nesting depth of live spans on the calling thread (0 outside any span).
inline int span_depth() { return detail::span_depth_slot(); }

/// RAII scoped timer. Captures the enabled flag at construction so a span
/// never half-records across a runtime toggle.
class Span {
 public:
  explicit Span(SpanId id) : id_(id), live_(enabled()) {
    if (live_) {
      start_ = now_ns();
      ++detail::span_depth_slot();
    }
  }
  ~Span() {
    if (live_) {
      --detail::span_depth_slot();
      record_span(id_, now_ns() - start_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanId id_;
  std::uint64_t start_ = 0;
  bool live_;
};

#define TGC_OBS_CONCAT_INNER(a, b) a##b
#define TGC_OBS_CONCAT(a, b) TGC_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope under `id`.
#define TGC_OBS_SPAN(id) \
  ::tgc::obs::Span TGC_OBS_CONCAT(tgc_obs_span_, __LINE__) { id }

}  // namespace tgc::obs
