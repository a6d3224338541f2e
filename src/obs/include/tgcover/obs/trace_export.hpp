#pragma once

#include <iosfwd>
#include <vector>

#include "tgcover/obs/trace.hpp"

namespace tgc::obs {

/// Writes Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
/// chrome://tracing: one track per node (tid = node + 1) plus a scheduler
/// track (tid 0), handler spans as slices, and `s`/`f` flow arrows binding
/// each delivery to its send, timed on the wall clock (where the simulator
/// spends its time). Accepts an empty event vector (TGC_OBS=OFF runs) and
/// still emits a valid, loadable file.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out);

/// Writes the compact JSONL form `tgcover report` analyzes: one
/// trace_header record, then one flat trace_event record per event (the
/// event's message type / phase id rides in `subtype`). Deliberately excludes
/// `wall_ns` — identical seeds must yield byte-identical files regardless of
/// machine, run, or --threads value (the determinism tests byte-compare
/// these).
void write_trace_jsonl(const std::vector<TraceEvent>& events,
                       std::ostream& out);

}  // namespace tgc::obs
