#include <cstdio>
#include <ostream>
#include <string>

#include "tgcover/obs/profile.hpp"

/// Profile exporters. The JSONL stream is the bundle's profile.jsonl (after
/// the bundle writer's manifest header line): a self-describing header, the
/// drained per-worker event timeline, exact worker/phase summaries, and the
/// memory channel. Wall-clock fields make the stream machine-dependent by
/// nature; the thread-invariant columns (per-phase items, rounds, worker
/// count) are what tools/bench_gate.py --profile gates.
///
/// The Chrome export mirrors trace_export.cpp's conventions: one process per
/// subsystem (the causal node traces own pid 1, pool workers land on pid 2),
/// microsecond timestamps, stable field order — byte-deterministic given the
/// same ProfileData.

namespace tgc::obs {

namespace {

std::string f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Nanoseconds to the microsecond timestamps Chrome expects, with a fixed
/// 3-decimal form so rendering is locale-free and deterministic.
std::string us(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string_view phase_name_of(std::uint8_t phase) {
  return phase < kNumPhases ? cost_phase_name(static_cast<CostPhase>(phase))
                            : std::string_view("other");
}

}  // namespace

void write_profile_jsonl(const ProfileData& data, std::ostream& out) {
  out << "{\"type\":\"profile_header\",\"version\":1,\"workers\":"
      << data.workers.size()
      << ",\"hardware_concurrency\":" << data.hardware_concurrency
      << ",\"ring_capacity\":" << data.ring_capacity
      << ",\"wall_ns\":" << data.wall_ns
      << ",\"parallel_ns\":" << data.parallel_ns
      << ",\"forks\":" << data.forks << ",\"rounds\":" << data.rounds
      << ",\"off_lane_events\":" << data.off_lane_events
      << ",\"truncated\":" << (data.truncated() ? 1 : 0) << "}\n";

  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    for (const ProfileEvent& ev : data.workers[w].events) {
      out << "{\"type\":\"event\",\"worker\":" << w << ",\"kind\":\""
          << prof_kind_name(ev.kind) << "\",\"phase\":\""
          << phase_name_of(ev.phase) << "\",\"t_ns\":" << ev.start_ns
          << ",\"dur_ns\":" << ev.dur_ns << ",\"value\":" << ev.value
          << "}\n";
    }
  }

  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    const WorkerProfile& wp = data.workers[w];
    out << "{\"type\":\"worker_summary\",\"worker\":" << w
        << ",\"tasks\":" << wp.tasks << ",\"items\":" << wp.items
        << ",\"busy_ns\":" << wp.busy_ns << ",\"idle_ns\":" << wp.idle_ns
        << ",\"barrier_ns\":" << wp.barrier_ns
        << ",\"dropped\":" << wp.dropped;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (wp.phase_tasks[p] == 0 && wp.phase_items[p] == 0 &&
          wp.phase_busy_ns[p] == 0) {
        continue;
      }
      const std::string_view phase =
          cost_phase_name(static_cast<CostPhase>(p));
      out << ",\"tasks_" << phase << "\":" << wp.phase_tasks[p] << ",\"items_"
          << phase << "\":" << wp.phase_items[p] << ",\"busy_ns_" << phase
          << "\":" << wp.phase_busy_ns[p];
    }
    out << "}\n";
  }

  // Per-phase totals over every worker. All phases are emitted, zero or not:
  // the bench gate keys rows by phase name, and a silently missing row is
  // how regressions hide.
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    std::uint64_t tasks = 0;
    std::uint64_t items = 0;
    std::uint64_t busy = 0;
    for (const WorkerProfile& wp : data.workers) {
      tasks += wp.phase_tasks[p];
      items += wp.phase_items[p];
      busy += wp.phase_busy_ns[p];
    }
    out << "{\"type\":\"phase_summary\",\"phase\":\""
        << cost_phase_name(static_cast<CostPhase>(p)) << "\",\"tasks\":"
        << tasks << ",\"items\":" << items << ",\"busy_ns\":" << busy
        << "}\n";
  }

  for (const MemorySample& sample : data.memory.samples) {
    out << "{\"type\":\"mem_sample\",\"t_ns\":" << sample.t_ns
        << ",\"peak_rss_bytes\":" << sample.peak_rss_bytes << "}\n";
  }
  out << "{\"type\":\"memory_summary\",\"peak_rss_begin_bytes\":"
      << data.memory.peak_rss_begin_bytes << ",\"peak_rss_end_bytes\":"
      << data.memory.peak_rss_end_bytes << "}\n";

  out << "{\"type\":\"profile_summary\",\"wall_ns\":" << data.wall_ns
      << ",\"busy_ns\":" << data.total_busy_ns()
      << ",\"items\":" << data.total_items()
      << ",\"utilization\":" << f6(data.utilization())
      << ",\"serial_fraction\":" << f6(data.serial_fraction())
      << ",\"amdahl_max_speedup_hw\":"
      << f6(data.predicted_speedup(
             data.hardware_concurrency != 0 ? data.hardware_concurrency : 1))
      << "}\n";
}

void write_profile_chrome_trace(const ProfileData& data, std::ostream& out) {
  constexpr int kPid = 2;  // the causal node traces own pid 1
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto rec = [&]() -> std::ostream& {
    if (!first) out << ",";
    first = false;
    return out << "\n";
  };

  rec() << "{\"ph\":\"M\",\"pid\":" << kPid
        << ",\"name\":\"process_name\",\"args\":{\"name\":"
           "\"tgcover pool workers\"}}";
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    rec() << "{\"ph\":\"M\",\"pid\":" << kPid << ",\"tid\":" << w
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " << w
          << "\"}}";
  }

  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    for (const ProfileEvent& ev : data.workers[w].events) {
      switch (ev.kind) {
        case ProfKind::kTask:
          rec() << "{\"ph\":\"X\",\"pid\":" << kPid << ",\"tid\":" << w
                << ",\"ts\":" << us(ev.start_ns) << ",\"dur\":"
                << us(ev.dur_ns) << ",\"cat\":\"pool\",\"name\":\"task:"
                << phase_name_of(ev.phase) << "\",\"args\":{\"items\":"
                << ev.value << "}}";
          break;
        case ProfKind::kIdle:
        case ProfKind::kBarrier:
          rec() << "{\"ph\":\"X\",\"pid\":" << kPid << ",\"tid\":" << w
                << ",\"ts\":" << us(ev.start_ns) << ",\"dur\":"
                << us(ev.dur_ns) << ",\"cat\":\"pool\",\"name\":\""
                << prof_kind_name(ev.kind) << "\"}";
          break;
        case ProfKind::kFork:
          rec() << "{\"ph\":\"X\",\"pid\":" << kPid << ",\"tid\":" << w
                << ",\"ts\":" << us(ev.start_ns) << ",\"dur\":"
                << us(ev.dur_ns) << ",\"cat\":\"pool\",\"name\":\"fork:"
                << phase_name_of(ev.phase) << "\",\"args\":{\"items\":"
                << ev.value << "}}";
          break;
        case ProfKind::kPhase:
          rec() << "{\"ph\":\"i\",\"pid\":" << kPid << ",\"tid\":" << w
                << ",\"ts\":" << us(ev.start_ns)
                << ",\"s\":\"t\",\"cat\":\"pool\",\"name\":\"phase:"
                << phase_name_of(ev.phase) << "\"}";
          break;
        case ProfKind::kRound:
          rec() << "{\"ph\":\"i\",\"pid\":" << kPid << ",\"tid\":" << w
                << ",\"ts\":" << us(ev.start_ns)
                << ",\"s\":\"p\",\"cat\":\"pool\",\"name\":\"round "
                << ev.value << "\"}";
          break;
        case ProfKind::kCount:
          break;
      }
    }
  }

  for (const MemorySample& sample : data.memory.samples) {
    rec() << "{\"ph\":\"C\",\"pid\":" << kPid << ",\"tid\":0,\"ts\":"
          << us(sample.t_ns) << ",\"name\":\"memory\",\"args\":{"
          << "\"peak_rss_bytes\":" << sample.peak_rss_bytes << "}}";
  }

  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace tgc::obs
