#include "tgcover/app/quality_audit.hpp"

#include <algorithm>

#include "tgcover/core/confine.hpp"
#include "tgcover/core/quality.hpp"
#include "tgcover/geom/coverage.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::app {

namespace {

/// k-coverage histogram buckets: exactly 0..7 covering disks, then ≥ 8.
constexpr std::size_t kQualityKMax = 8;

/// Connected components of the awake-induced subgraph. The graph library's
/// component helpers operate on whole graphs; the audit needs the masked
/// count without materializing a filtered copy every sampled round.
std::uint64_t awake_components(const graph::Graph& g,
                               const std::vector<bool>& active) {
  const std::size_t n = g.num_vertices();
  std::vector<char> seen(n, 0);
  std::vector<graph::VertexId> stack;
  std::uint64_t components = 0;
  for (graph::VertexId s = 0; s < n; ++s) {
    if (!active[s] || seen[s]) continue;
    ++components;
    seen[s] = 1;
    stack.assign(1, s);
    while (!stack.empty()) {
      const graph::VertexId u = stack.back();
      stack.pop_back();
      for (const graph::VertexId w : g.neighbors(u)) {
        if (active[w] && !seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  return components;
}

}  // namespace

obs::QualityProbeResult probe_network_quality(const core::Network& net,
                                              const std::vector<bool>& active,
                                              double rs, double cell_size,
                                              unsigned tau_cap) {
  // Observation must not perturb the cost stream: the probe re-enters
  // counted kernels (BFS, Horton, GF(2)) purely to measure, and the scope
  // reverts the calling thread's tallies exactly.
  const obs::CostAuditScope cost_audit;

  obs::QualityProbeResult r;
  geom::CoverageGridOptions grid;
  grid.cell_size = cell_size;
  grid.k_max = kQualityKMax;
  const geom::CoverageAnalysis cov = geom::analyze_coverage(
      net.dep.positions, active, rs, net.target, grid);
  r.coverage_fraction = cov.covered_fraction;
  r.covered_cells = cov.covered_cells;
  r.total_cells = cov.total_cells;
  r.holes = cov.holes.size();
  // Proposition 1 bounds the diameter of holes *confined* by ≤τ-hop cycles;
  // the open margin between the boundary cycle and the target rectangle is
  // outside any cycle and is excluded from the SLO comparison (it still
  // depresses coverage_fraction).
  r.max_hole_diameter = cov.max_confined_hole_diameter;
  r.k_histogram.assign(cov.k_histogram.begin(), cov.k_histogram.end());
  r.redundancy = cov.redundancy();

  r.components = awake_components(net.dep.graph, active);

  // A crash that severs CB yields certifiable_tau = 0 (no τ certifies).
  r.certifiable_tau = core::assess_quality(net.dep.graph, active, net.cb,
                                           std::max(tau_cap, 3u))
                          .certifiable_tau;
  return r;
}

std::unique_ptr<obs::QualityAuditor> make_quality_auditor(
    const core::Network& net, unsigned tau, double rs) {
  TGC_CHECK_MSG(rs > 0.0, "--rs must be > 0");
  obs::QualityConfig config;
  config.tau = tau;
  config.rs = rs;
  config.gamma = net.dep.rc / rs;
  config.hole_diameter_bound =
      core::paper_hole_diameter_bound(tau, config.gamma, net.dep.rc);
  auto probe = [&net, rs, cell = config.cell_size,
                tau](const std::vector<bool>& active) {
    return probe_network_quality(net, active, rs, cell, tau);
  };
  return std::make_unique<obs::QualityAuditor>(config, std::move(probe));
}

}  // namespace tgc::app
