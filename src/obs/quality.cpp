#include "tgcover/obs/quality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>

namespace tgc::obs {

namespace {

/// Fixed-precision float formatting so streams are byte-identical across
/// platforms (same contract as the metrics and node-telemetry exporters).
std::string f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::uint64_t count_awake(const std::vector<bool>& active) {
  std::uint64_t n = 0;
  for (const bool a : active) n += a ? 1 : 0;
  return n;
}

void write_round_line(std::ostream& out, const QualityRoundRecord& r,
                      bool bound_finite) {
  out << "{\"type\":\"quality_round\",\"round\":" << r.round
      << ",\"awake\":" << r.awake
      << ",\"coverage_fraction\":" << f6(r.m.coverage_fraction)
      << ",\"covered_cells\":" << r.m.covered_cells
      << ",\"total_cells\":" << r.m.total_cells << ",\"holes\":" << r.m.holes
      << ",\"max_hole_diameter\":" << f6(r.m.max_hole_diameter)
      << ",\"components\":" << r.m.components
      << ",\"certifiable_tau\":" << r.m.certifiable_tau
      << ",\"redundancy\":" << f6(r.m.redundancy);
  if (bound_finite) {
    out << ",\"bound_margin\":" << f6(r.bound_margin)
        << ",\"violation\":" << (r.violation ? 1 : 0);
  }
  out << ",\"k_buckets\":" << r.m.k_histogram.size();
  for (std::size_t k = 0; k < r.m.k_histogram.size(); ++k) {
    out << ",\"k" << k << "\":" << r.m.k_histogram[k];
  }
  out << "}\n";
}

void write_summary_line(std::ostream& out, const QualitySummary& s,
                        bool bound_finite, const std::uint64_t* run_id) {
  out << "{\"type\":\"quality_summary\",";
  if (run_id != nullptr) out << "\"run\":" << *run_id << ',';
  out << "\"rounds_sampled\":" << s.rounds_sampled
      << ",\"min_coverage_fraction\":" << f6(s.min_coverage_fraction)
      << ",\"final_coverage_fraction\":" << f6(s.final_coverage_fraction)
      << ",\"max_hole_diameter\":" << f6(s.max_hole_diameter);
  if (bound_finite) {
    out << ",\"bound_margin\":" << f6(s.min_bound_margin)
        << ",\"violations\":" << s.violations;
  }
  out << ",\"max_components\":" << s.max_components
      << ",\"final_certifiable_tau\":" << s.final_certifiable_tau
      << ",\"final_redundancy\":" << f6(s.final_redundancy)
      << ",\"final_awake\":" << s.final_awake << "}\n";
}

}  // namespace

QualityAuditor::QualityAuditor(QualityConfig config, QualityProbe probe)
    : config_(config), probe_(std::move(probe)) {}

void QualityAuditor::finalize(const std::vector<bool>& active) {
  if (finalized_) return;
  // The final awake set is what the run actually ships; make sure it is
  // sampled even when no round hook ever fired (a schedule that deletes
  // nothing).
  if (rounds_.empty()) end_round(0, active);
  summary_ = QualitySummary{};
  summary_.rounds_sampled = rounds_.size();
  bool first = true;
  double min_margin = std::numeric_limits<double>::infinity();
  for (const QualityRoundRecord& r : rounds_) {
    if (first || r.m.coverage_fraction < summary_.min_coverage_fraction) {
      summary_.min_coverage_fraction = r.m.coverage_fraction;
    }
    summary_.max_hole_diameter =
        std::max(summary_.max_hole_diameter, r.m.max_hole_diameter);
    summary_.max_components = std::max(summary_.max_components, r.m.components);
    min_margin = std::min(min_margin, r.bound_margin);
    if (r.violation) ++summary_.violations;
    first = false;
  }
  if (!rounds_.empty()) {
    const QualityRoundRecord& last = rounds_.back();
    summary_.final_coverage_fraction = last.m.coverage_fraction;
    summary_.final_certifiable_tau = last.m.certifiable_tau;
    summary_.final_redundancy = last.m.redundancy;
    summary_.final_awake = last.awake;
  }
  summary_.min_bound_margin = std::isfinite(min_margin) ? min_margin : 0.0;
  finalized_ = true;
}

void QualityAuditor::end_round(std::uint64_t round,
                               const std::vector<bool>& active) {
  QualityRoundRecord rec;
  rec.round = round;
  rec.awake = count_awake(active);
  rec.m = probe_(active);
  if (std::isfinite(config_.hole_diameter_bound)) {
    rec.bound_margin = config_.hole_diameter_bound - rec.m.max_hole_diameter;
    rec.violation = rec.m.max_hole_diameter > config_.hole_diameter_bound;
  }
  rounds_.push_back(std::move(rec));
}

void write_quality_jsonl(const QualityAuditor& auditor, std::ostream& out) {
  const QualityConfig& c = auditor.config();
  const bool bound_finite = std::isfinite(c.hole_diameter_bound);
  out << "{\"type\":\"quality_header\",\"version\":1,\"tau\":" << c.tau
      << ",\"rs\":" << f6(c.rs)
      << ",\"gamma\":" << f6(c.gamma) << ",\"cell_size\":" << f6(c.cell_size)
      << ",\"bound_finite\":" << (bound_finite ? 1 : 0);
  if (bound_finite) out << ",\"bound\":" << f6(c.hole_diameter_bound);
  out << "}\n";
  for (const QualityRoundRecord& r : auditor.rounds()) {
    write_round_line(out, r, bound_finite);
    if (r.violation) {
      out << "{\"type\":\"bound_violation\",\"round\":" << r.round
          << ",\"max_hole_diameter\":" << f6(r.m.max_hole_diameter)
          << ",\"bound\":" << f6(c.hole_diameter_bound) << ",\"excess\":"
          << f6(r.m.max_hole_diameter - c.hole_diameter_bound) << "}\n";
    }
  }
  if (auditor.finalized()) {
    write_summary_line(out, auditor.summary(), bound_finite, nullptr);
  }
}

void write_quality_summary_jsonl(const QualityAuditor& auditor,
                                 std::uint64_t run_id, std::ostream& out) {
  const bool bound_finite =
      std::isfinite(auditor.config().hole_diameter_bound);
  write_summary_line(out, auditor.summary(), bound_finite, &run_id);
}

}  // namespace tgc::obs
