#include "tgcover/obs/trace.hpp"

#include <array>
#include <atomic>
#include <mutex>
#include <utility>

namespace tgc::obs {

namespace {

constexpr std::array<std::string_view, kNumTraceKinds> kTraceKindNames = {
    "sched_round_begin", "sched_round_end", "phase_begin", "phase_end",
    "engine_round",      "wave",            "handler_begin", "handler_end",
    "send",              "deliver",         "drop",          "loss",
    "retransmit",        "timer_set",       "timer_fire",    "verdict",
    "deactivate",
};

static_assert(!kTraceKindNames.back().empty(),
              "trace kind name table out of sync with TraceKind");

}  // namespace

std::string_view trace_kind_name(TraceKind kind) {
  return kTraceKindNames[static_cast<std::size_t>(kind)];
}

std::string_view trace_phase_name(std::uint32_t phase) {
  switch (static_cast<TracePhase>(phase)) {
    case TracePhase::kKhop:
      return "khop_collect";
    case TracePhase::kVerdicts:
      return "verdicts";
    case TracePhase::kMis:
      return "mis";
    case TracePhase::kDeletion:
      return "deletion";
  }
  return "phase";
}

namespace {

/// The one trace buffer. Only the thread driving a simulator emits (VPT
/// workers emit nothing), so the mutex is uncontended in practice; sequence
/// numbers are taken under it, so the buffer is already in seq order.
struct TraceState {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint64_t next_seq = 1;
  std::atomic<bool> active{false};
};

TraceState& trace_state() {
  static TraceState t;
  return t;
}

}  // namespace

bool trace_active() {
  return trace_state().active.load(std::memory_order_relaxed);
}

void trace_begin() {
  TraceState& t = trace_state();
  const std::lock_guard<std::mutex> lock(t.mutex);
  t.events.clear();
  t.next_seq = 1;
  t.active.store(true, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_end() {
  TraceState& t = trace_state();
  const std::lock_guard<std::mutex> lock(t.mutex);
  t.active.store(false, std::memory_order_relaxed);
  return std::exchange(t.events, {});
}

std::uint64_t trace_emit(TraceKind kind, std::uint32_t node,
                         std::uint32_t peer, std::uint32_t type,
                         std::uint32_t value, double sim, std::uint64_t flow) {
  TraceState& t = trace_state();
  if (!t.active.load(std::memory_order_relaxed)) return 0;
  TraceEvent ev;
  ev.wall_ns = now_ns();
  ev.flow = flow;
  ev.sim = sim;
  ev.node = node;
  ev.peer = peer;
  ev.type = type;
  ev.value = value;
  ev.kind = kind;
  const std::lock_guard<std::mutex> lock(t.mutex);
  ev.seq = t.next_seq++;
  t.events.push_back(ev);
  return ev.seq;
}

}  // namespace tgc::obs
