#include "tgcover/obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace tgc::obs {

namespace {

/// Correlation id of an event: send/timer-set events mint their own sequence
/// number as the flow id (trace.hpp); everything else carries it in `flow`.
std::uint64_t flow_of(const TraceEvent& ev) {
  return ev.kind == TraceKind::kSend || ev.kind == TraceKind::kTimerSet
             ? ev.seq
             : ev.flow;
}

std::string fmt_double(const char* fmt, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Chrome track of an event: tid 0 is the scheduler/engine track, node v
/// gets tid v + 1.
std::uint32_t tid_of(const TraceEvent& ev) {
  return ev.node == kTraceNoNode ? 0 : ev.node + 1;
}

}  // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out) {
  std::uint64_t t0 = events.empty() ? 0 : events.front().wall_ns;
  for (const TraceEvent& ev : events) t0 = std::min(t0, ev.wall_ns);
  const auto ts = [&](const TraceEvent& ev) {
    // Chrome trace timestamps are microseconds.
    return fmt_double("%.3f", static_cast<double>(ev.wall_ns - t0) / 1000.0);
  };

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto rec = [&]() -> std::ostream& {
    out << (first ? "\n" : ",\n");
    first = false;
    return out;
  };

  rec() << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"tgcover sim\"}}";
  rec() << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"scheduler\"}}";
  std::vector<std::uint32_t> nodes;
  for (const TraceEvent& ev : events) {
    if (ev.node != kTraceNoNode) nodes.push_back(ev.node);
    if (ev.peer != kTraceNoNode) nodes.push_back(ev.peer);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const std::uint32_t v : nodes) {
    rec() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (v + 1)
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node " << v
          << "\"}}";
  }

  // Appending into a named string (rather than chaining operator+ on a
  // const char*) sidesteps a GCC 12 -Wrestrict false positive.
  const auto label = [](const char* prefix, std::uint32_t v) {
    std::string s = prefix;
    s += std::to_string(v);
    return s;
  };
  const auto slice = [&](const TraceEvent& ev, char ph,
                         const std::string& name) {
    rec() << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid_of(ev)
          << ",\"ts\":" << ts(ev) << ",\"name\":\"" << name << "\"}";
  };
  const auto instant = [&](const TraceEvent& ev, const std::string& name,
                           const std::string& args) {
    rec() << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tid_of(ev)
          << ",\"ts\":" << ts(ev) << ",\"name\":\"" << name << "\"";
    if (!args.empty()) out << ",\"args\":{" << args << "}";
    out << "}";
  };
  const auto flow = [&](const TraceEvent& ev, const char* ph, bool binding) {
    rec() << "{\"ph\":\"" << ph << "\"";
    if (binding) out << ",\"bp\":\"e\"";
    out << ",\"id\":" << flow_of(ev) << ",\"pid\":1,\"tid\":" << tid_of(ev)
        << ",\"ts\":" << ts(ev) << ",\"cat\":\"msg\",\"name\":\"msg\"}";
  };

  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceKind::kSchedRoundBegin:
        slice(ev, 'B', label("round ", ev.value));
        break;
      case TraceKind::kSchedRoundEnd:
        slice(ev, 'E', label("round ", ev.value));
        break;
      case TraceKind::kPhaseBegin:
        slice(ev, 'B',
              std::string(cost_phase_name(static_cast<CostPhase>(ev.type))));
        break;
      case TraceKind::kPhaseEnd:
        slice(ev, 'E',
              std::string(cost_phase_name(static_cast<CostPhase>(ev.type))));
        break;
      case TraceKind::kEngineRound:
        instant(ev, "engine round", label("\"round\":", ev.value));
        break;
      case TraceKind::kWave:
        instant(ev, "wave", label("\"wave\":", ev.value));
        break;
      case TraceKind::kHandlerBegin:
        slice(ev, 'B', label("r", ev.value));
        break;
      case TraceKind::kHandlerEnd:
        slice(ev, 'E', label("r", ev.value));
        break;
      case TraceKind::kSend: {
        std::string args = label("\"to\":", ev.peer);
        args += label(",\"type\":", ev.type);
        args += label(",\"words\":", ev.value);
        instant(ev, "send", args);
        flow(ev, "s", false);
        break;
      }
      case TraceKind::kDeliver:
        instant(ev, "recv", label("\"from\":", ev.peer));
        if (ev.flow != 0) flow(ev, "f", true);
        break;
      case TraceKind::kDrop:
        instant(ev, "drop", "");
        break;
      case TraceKind::kLoss:
        instant(ev, "loss", "\"to\":" + std::to_string(ev.peer));
        break;
      case TraceKind::kRetransmit:
        instant(ev, "retransmit", "\"to\":" + std::to_string(ev.peer));
        break;
      case TraceKind::kTimerSet:
        instant(ev, "timer set", "");
        break;
      case TraceKind::kTimerFire:
        instant(ev, "timer fire", "");
        break;
      case TraceKind::kVerdict:
        instant(ev, ev.value != 0 ? "deletable" : "vetoed", "");
        break;
      case TraceKind::kDeactivate:
        instant(ev, "power down", "");
        break;
      case TraceKind::kCount:
        break;
    }
  }
  out << "\n]}\n";
}

void write_trace_jsonl(const std::vector<TraceEvent>& events,
                       std::ostream& out) {
  out << "{\"type\":\"trace_header\",\"version\":1,\"events\":"
      << events.size() << "}\n";
  for (const TraceEvent& ev : events) {
    out << "{\"type\":\"trace_event\",\"seq\":" << ev.seq
        << ",\"kind\":\"" << trace_kind_name(ev.kind)
        << "\",\"sim\":" << fmt_double("%.12g", ev.sim);
    if (ev.node != kTraceNoNode) out << ",\"node\":" << ev.node;
    if (ev.peer != kTraceNoNode) out << ",\"peer\":" << ev.peer;
    if (ev.type != 0) out << ",\"subtype\":" << ev.type;
    if (ev.value != 0) out << ",\"value\":" << ev.value;
    if (const std::uint64_t f = flow_of(ev); f != 0) out << ",\"flow\":" << f;
    out << "}\n";
  }
}

}  // namespace tgc::obs
