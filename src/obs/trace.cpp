#include "tgcover/obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <mutex>

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

/// One thread's event buffer. std::deque is the chunk structure: appends
/// never move prior events, so a drain concurrent with no writers sees a
/// stable sequence. The mutex is per-buffer and effectively uncontended —
/// it is only ever shared between the owning thread (emit) and the drain.
struct TraceBuf {
  std::mutex mutex;
  std::deque<TraceEvent> events;
};

/// Process-wide trace registry, mirroring the counter shard registry:
/// buffers live in a deque (stable addresses) and are never reclaimed, so a
/// worker thread that exits leaves its events behind for the drain.
struct TraceRegistry {
  std::mutex mutex;
  std::deque<TraceBuf> bufs;
  std::atomic<bool> active{false};
  std::atomic<std::uint64_t> next_seq{1};
};

TraceRegistry& trace_registry() {
  static TraceRegistry r;
  return r;
}

TraceBuf* register_trace_buf() {
  TraceRegistry& r = trace_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return &r.bufs.emplace_back();
}

TraceBuf& local_trace_buf() {
  thread_local TraceBuf* buf = register_trace_buf();
  return *buf;
}

}  // namespace

bool trace_active() {
  return trace_registry().active.load(std::memory_order_relaxed);
}

void trace_begin() {
  TraceRegistry& r = trace_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (TraceBuf& buf : r.bufs) {
    const std::lock_guard<std::mutex> buf_lock(buf.mutex);
    buf.events.clear();
  }
  r.next_seq.store(1, std::memory_order_relaxed);
  r.active.store(true, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_end() {
  TraceRegistry& r = trace_registry();
  r.active.store(false, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<TraceEvent> all;
  for (TraceBuf& buf : r.bufs) {
    const std::lock_guard<std::mutex> buf_lock(buf.mutex);
    all.insert(all.end(), buf.events.begin(), buf.events.end());
    buf.events.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return all;
}

std::uint64_t trace_emit(TraceKind kind, std::uint32_t node,
                         std::uint32_t peer, std::uint32_t type,
                         std::uint32_t value, double sim, std::uint64_t flow) {
  TraceRegistry& r = trace_registry();
  if (!r.active.load(std::memory_order_relaxed)) return 0;
  TraceEvent ev;
  ev.seq = r.next_seq.fetch_add(1, std::memory_order_relaxed);
  ev.wall_ns = now_ns();
  ev.flow = flow;
  ev.sim = sim;
  ev.node = node;
  ev.peer = peer;
  ev.type = type;
  ev.value = value;
  ev.kind = kind;
  TraceBuf& buf = local_trace_buf();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(ev);
  return ev.seq;
}

}  // namespace tgc::obs
