#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <vector>

/// Solution-quality auditing: per-round geometric SLO telemetry.
///
/// Every other observability layer watches how *cheaply* the protocol runs
/// (cost counters, traces, the execution profiler, node telemetry). The
/// QualityAuditor watches whether the awake sets it emits actually *hold
/// coverage* — the paper's central claim. Each sampled round it records the
/// geometric coverage fraction, a k-coverage histogram, the largest-hole
/// diameter estimate checked against the τ-confine bound of Proposition 1
/// (emitting a `bound_violation` event whenever the bound is exceeded, which
/// turns Fig. 6's empirical claim into a continuously checked invariant),
/// awake-set connectivity, the smallest certifiable τ, and the redundancy
/// ratio.
///
/// Layering: tgc_obs sits below geom/graph/core, so the auditor cannot call
/// the rasterizer or the certificate checker itself. Instead it samples an
/// app-composed *probe* — a closure that captures the network and returns a
/// plain QualityProbeResult. The precomputed hole-diameter bound arrives the
/// same way, as a config double. The probe must be cost-silent: compose it
/// under a CostAuditScope (see cost.hpp) so re-entering counted kernels to
/// measure quality never perturbs the gated cost stream.
///
/// Activation model (identical to NodeTelemetry): the driving thread binds a
/// collector via set_quality_auditor(); the scheduler's round hook performs
/// one thread_local load plus a null check when unarmed. The fleet runner
/// binds one auditor per campaign cell on the pool worker executing it.
/// Arming perturbs nothing — schedule digests, cost streams, and traces are
/// byte-identical with the auditor on or off, at any thread count.

namespace tgc::obs {

/// One sampled round's measurement, produced by the app-composed probe.
/// Plain data only — the auditor stores and exports it without interpreting
/// anything beyond the bound comparison.
struct QualityProbeResult {
  double coverage_fraction = 0.0;  ///< covered cells / total cells
  std::uint64_t covered_cells = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t holes = 0;  ///< uncovered-cell clusters (incl. open margin)
  /// Conservative diameter estimate over *confined* holes (the quantity
  /// Proposition 1 bounds); 0 when every hole is open or there are none.
  double max_hole_diameter = 0.0;
  /// Cells covered by exactly k awake disks, k = 0..size-2; the last bucket
  /// aggregates every higher multiplicity.
  std::vector<std::uint64_t> k_histogram;
  double redundancy = 0.0;     ///< mean covering multiplicity on covered cells
  std::uint64_t components = 0;  ///< connected components of the awake set
  unsigned certifiable_tau = 0;  ///< smallest certifying τ ≤ cap, 0 if none
};

using QualityProbe =
    std::function<QualityProbeResult(const std::vector<bool>& active)>;

/// Static knobs, fixed at arming time. The geometry echoes (rs, cell_size,
/// gamma) are recorded in the stream header so a dashboard can label its
/// charts; they do not influence the auditor's control flow.
struct QualityConfig {
  unsigned tau = 4;  ///< configured confine size the run targets
  /// Proposition 1 hole-diameter bound for (tau, gamma): (τ-2)·Rc when
  /// γ ≤ 2, +inf otherwise. Precomputed by the app layer from
  /// core::paper_hole_diameter_bound so obs stays below core.
  double hole_diameter_bound = std::numeric_limits<double>::infinity();
  std::uint64_t sample_every = 1;  ///< probe every Nth round (≥ 1)
  double rs = 1.0;                 ///< sensing radius (header echo)
  double gamma = 1.0;              ///< Rc / Rs (header echo)
  double cell_size = 0.05;         ///< rasterizer cell (header echo)
};

/// One sampled round boundary.
struct QualityRoundRecord {
  std::uint64_t round = 0;  ///< 0 = pre-deletion state, then 1-based rounds
  std::uint64_t awake = 0;  ///< awake-set size at the boundary
  QualityProbeResult m;
  bool violation = false;     ///< max_hole_diameter exceeded the bound
  double bound_margin = 0.0;  ///< bound − max_hole_diameter (finite bound)
};

/// Run-level rollup, frozen by finalize().
struct QualitySummary {
  std::uint64_t rounds_sampled = 0;
  double min_coverage_fraction = 0.0;
  double final_coverage_fraction = 0.0;
  double max_hole_diameter = 0.0;  ///< max over all sampled rounds
  double min_bound_margin = 0.0;   ///< min over samples (finite bound only)
  std::uint64_t violations = 0;
  std::uint64_t max_components = 0;
  unsigned final_certifiable_tau = 0;
  double final_redundancy = 0.0;
  std::uint64_t final_awake = 0;
};

/// Per-run solution-quality collector. Single-threaded by design: end_round
/// runs on the scheduler's driving thread (rounds are fork-join sequential),
/// so plain members suffice. Rounds are counted monotonically across
/// scheduler re-entry — dcc_repair's escalating waves keep extending the
/// same timeline.
class QualityAuditor {
 public:
  QualityAuditor(QualityConfig config, QualityProbe probe);

  /// Round hook: samples the probe on the first call (round 0, the
  /// pre-deletion state) and then every `sample_every`-th round. Cheap when
  /// skipping (one counter increment).
  void end_round(const std::vector<bool>& active);

  /// Samples the final awake set (unless the last end_round already covered
  /// it) and freezes the summary. Call once, after the run returns.
  void finalize(const std::vector<bool>& active);

  const QualityConfig& config() const { return config_; }
  const std::vector<QualityRoundRecord>& rounds() const { return rounds_; }
  const QualitySummary& summary() const { return summary_; }
  bool finalized() const { return finalized_; }

 private:
  void sample(std::uint64_t round, const std::vector<bool>& active);

  QualityConfig config_;
  QualityProbe probe_;
  std::uint64_t next_round_ = 0;  ///< rounds seen so far (0 ⇒ nothing yet)
  std::uint64_t last_sampled_round_ = 0;
  bool sampled_any_ = false;
  bool finalized_ = false;
  std::vector<QualityRoundRecord> rounds_;
  QualitySummary summary_;
};

/// Binds `auditor` as the calling thread's active quality collector (nullptr
/// unbinds). Same contract as set_node_telemetry: the unarmed hook is one
/// thread_local load plus a predicted-taken null check.
void set_quality_auditor(QualityAuditor* auditor);
QualityAuditor* quality_auditor();

/// Full stream: `quality_header`, one `quality_round` per sample (plus a
/// `bound_violation` event line after any violating round), and a closing
/// `quality_summary`. The caller writes the run-manifest header line first.
void write_quality_jsonl(const QualityAuditor& auditor, std::ostream& out);

/// Compact fleet form: the run-tagged `quality_summary` line only, appended
/// to the campaign bundle's quality.jsonl.
void write_quality_summary_jsonl(const QualityAuditor& auditor,
                                 std::uint64_t run_id, std::ostream& out);

}  // namespace tgc::obs
