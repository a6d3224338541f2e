#pragma once

#include <memory>
#include <vector>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/obs/quality.hpp"

namespace tgc::app {

/// One geometric + topological quality measurement of `active` over `net`:
/// coverage fraction, k-coverage histogram and redundancy (CellGrid
/// rasterizer), largest-hole diameter, awake-set component count, and the
/// smallest certifiable τ (≤ tau_cap). Runs entirely under a CostAuditScope,
/// so re-entering the counted Horton/GF(2) kernels to measure quality never
/// perturbs the gated cost stream.
obs::QualityProbeResult probe_network_quality(const core::Network& net,
                                              const std::vector<bool>& active,
                                              double rs, double cell_size,
                                              unsigned tau_cap);

/// Builds a QualityAuditor over `net` sampling every round on a 0.05-side
/// coverage grid: composes the probe closure, precomputes the Proposition 1
/// bound for γ = Rc/rs, and echoes the geometry into the stream header. The
/// sensing radius `rs` is an observation parameter (never a semantic
/// manifest key), so arming changes no other stream. The returned auditor
/// captures `net` by reference — it must not outlive the network. Binding
/// to the thread is the caller's job (set_quality_auditor for CLI commands,
/// a per-cell RAII scope in the fleet runner).
std::unique_ptr<obs::QualityAuditor> make_quality_auditor(
    const core::Network& net, unsigned tau, double rs);

}  // namespace tgc::app
