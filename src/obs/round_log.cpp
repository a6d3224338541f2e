#include "tgcover/obs/round_log.hpp"

#include <algorithm>
#include <ostream>

#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"

namespace tgc::obs {

namespace {

/// The calling thread's run binding and its round index.
thread_local RunCollectors t_run;
thread_local std::uint64_t t_round = 0;

/// Shared key order for round and summary records: scheduler-provided
/// fields, then every counter by name, then per-span nanoseconds.
void write_metrics_fields(std::ostream& out, const Metrics& m) {
  const CostVec counters = m.cost.total();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << ",\"" << counter_name(static_cast<CounterId>(i))
        << "\":" << counters.units[i];
  }
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    out << ",\"ns_" << span_name(static_cast<SpanId>(i))
        << "\":" << m.spans[i].sum_ns;
  }
}

void write_cost_fields(std::ostream& out, const CostVec& v) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << ",\"" << counter_name(static_cast<CounterId>(i))
        << "\":" << v.units[i];
  }
  out << ",\"logical_cost\":" << logical_cost(v);
}

/// One "cost"/"cost_total" record per phase with any activity. Skipping
/// all-zero phases keeps the stream compact without costing determinism:
/// which phases fire is itself a deterministic function of input and seed.
void write_cost_records(std::ostream& out, std::string_view type,
                        std::uint64_t round, bool with_round,
                        const CostSnapshot& s) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const CostVec& v = s.phases[p];
    if (v.is_zero()) continue;
    out << "{\"type\":\"" << type << '"';
    if (with_round) out << ",\"round\":" << round;
    out << ",\"phase\":\"" << cost_phase_name(static_cast<CostPhase>(p))
        << '"';
    write_cost_fields(out, v);
    out << "}\n";
  }
}

}  // namespace

RoundCollector::RoundCollector()
    : baseline_(snapshot()), round_start_(baseline_), t0_ns_(now_ns()) {}

void RoundCollector::begin_round() { round_start_ = snapshot(); }

void RoundCollector::end_round(std::uint64_t round,
                               const std::vector<bool>& active,
                               std::uint64_t candidates,
                               std::uint64_t deleted) {
  RoundEvent ev;
  ev.round = round;
  ev.active = static_cast<std::uint64_t>(
      std::count(active.begin(), active.end(), true));
  ev.candidates = candidates;
  ev.deleted = deleted;
  ev.delta = snapshot() - round_start_;
  events_.push_back(std::move(ev));
}

void RoundCollector::finalize(std::uint64_t survivors) {
  survivors_ = survivors;
  wall_ns_ = now_ns() - t0_ns_;
  final_totals_ = snapshot() - baseline_;
  finalized_ = true;
}

Metrics RoundCollector::totals() const {
  return finalized_ ? final_totals_ : snapshot() - baseline_;
}

std::uint64_t RoundCollector::wall_ns() const {
  return finalized_ ? wall_ns_ : now_ns() - t0_ns_;
}

void RoundCollector::write_jsonl(std::ostream& out) const {
  for (const RoundEvent& ev : events_) {
    out << "{\"type\":\"round\",\"round\":" << ev.round
        << ",\"active\":" << ev.active << ",\"candidates\":" << ev.candidates
        << ",\"deleted\":" << ev.deleted;
    write_metrics_fields(out, ev.delta);
    out << "}\n";
    write_cost_records(out, "cost", ev.round, /*with_round=*/true,
                       ev.delta.cost);
  }
  const Metrics total = totals();
  write_cost_records(out, "cost_total", 0, /*with_round=*/false, total.cost);
  out << "{\"type\":\"summary\",\"rounds\":" << events_.size()
      << ",\"survivors\":" << survivors_ << ",\"wall_ns\":" << wall_ns()
      << ",\"logical_cost\":" << logical_cost(total.cost.total());
  write_metrics_fields(out, total);
  out << "}\n";
}

void RoundCollector::write_cost_jsonl(std::ostream& out) const {
  for (const RoundEvent& ev : events_) {
    write_cost_records(out, "cost", ev.round, /*with_round=*/true,
                       ev.delta.cost);
  }
  write_cost_records(out, "cost_total", 0, /*with_round=*/false,
                     totals().cost);
}

RunScope::RunScope(RunCollectors collectors) {
  t_run = collectors;
  t_round = 0;
}

RunScope::~RunScope() { t_run = {}; }

NodeTelemetry* node_telemetry() { return t_run.nodes; }

void round_begin() {
  if (t_run.rounds != nullptr) t_run.rounds->begin_round();
}

void round_end(const std::vector<bool>& active, std::uint64_t candidates,
               std::uint64_t deleted) {
  const std::uint64_t round = ++t_round;
  if (t_run.rounds != nullptr) {
    t_run.rounds->end_round(round, active, candidates, deleted);
  }
  if (t_run.nodes != nullptr) t_run.nodes->end_round(round, active);
  if (t_run.quality != nullptr) t_run.quality->end_round(round, active);
  if (profile_active()) {
    profile_round(round);
    profile_mem_sample();
  }
}

void setup_end(const std::vector<bool>& active) {
  if (t_run.nodes != nullptr) t_run.nodes->end_round(0, active);
  if (t_run.quality != nullptr) t_run.quality->end_round(0, active);
}

}  // namespace tgc::obs
