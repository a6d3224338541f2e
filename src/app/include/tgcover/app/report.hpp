#pragma once

#include <string>

#include "tgcover/app/run_bundle.hpp"
#include "tgcover/app/trace_analysis.hpp"
#include "tgcover/obs/profile.hpp"

namespace tgc::app {

/// A named reason the bundle cannot be rendered ("" when it can): no
/// renderable records at all, or a collector's records without the header
/// record its section needs. `tgcover report` exits 1 on it.
std::string report_refusal(const Bundle& bundle);

/// The execution profile a bundle's profile_header / event / worker_summary
/// / mem_sample / memory_summary records describe (the header must be
/// present and pass report_refusal). Events naming an unknown worker or
/// kind are dropped; phase and profile summaries are recomputed.
obs::ProfileData profile_of(const Bundle& bundle);

/// The text `tgcover report` prints: the per-round table, the per-phase
/// logical-cost table and the summary line of a metrics/cost stream, then
/// the causal analysis of a trace stream (`trace` may be null).
std::string render_report_text(const Bundle& bundle, const TraceStats* trace);

/// The dashboard: one self-contained HTML page (inline CSS and SVG, no
/// scripts) with a section for every collector whose records the bundle
/// holds — run cost and rounds, causal critical path, execution profile,
/// node telemetry, coverage quality, fleet sweep — on one shared layout.
/// Byte-deterministic for fixed inputs: no clocks, no locale, fixed float
/// precision, sorted iteration only, and only machine-independent fleet
/// fields, so CI can assert two renders compare equal.
std::string render_report_html(const Bundle& bundle, const TraceStats* trace,
                               const std::string& title);

}  // namespace tgc::app
