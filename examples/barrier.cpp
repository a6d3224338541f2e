// Barrier regime — confine coverage with large confine sizes (Section
// III-C: "We can consider the barrier coverage as an instance of confine
// coverage with confine size of network scale").
//
// A sparse strip network cannot blanket-cover its area, but its boundary
// cycle may still be τ-partitionable for a larger τ: every crossing path is
// then trapped inside some ≤ τ-hop cycle, bounding the escape distance by
// Proposition 1's (τ-2)·Rc. This example uses the quality report to find
// the smallest certifiable τ of such a network and interprets it.
//
//   barrier [--nodes 220] [--gamma 2.0]
#include <cstdio>

#include "tgcover/core/confine.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/quality.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/coverage.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>("nodes", 220, "deployed nodes");
  const double gamma =
      args.get_double("gamma", 2.0, "sensing ratio Rc/Rs (sparse sensing)");
  const auto seed = args.get_uint<std::uint64_t>("seed", 77, "workload seed");
  args.finish();

  // A deliberately sparse strip: not enough density for blanket coverage.
  util::Rng master(seed);
  gen::Deployment dep;
  for (std::uint64_t attempt = 0;; ++attempt) {
    if (attempt >= 64) {
      std::puts("could not generate a connected strip");
      return 1;
    }
    util::Rng rng = master.fork(attempt);
    dep = gen::random_strip_udg(n, 16.0, 3.0, 1.0, rng);
    if (graph::is_connected(dep.graph)) break;
  }
  const core::Network net = core::prepare_network(std::move(dep), 1.0);
  std::printf("sparse strip: %zu nodes, avg degree %.1f\n", n,
              net.dep.graph.average_degree());

  const core::QualityReport q =
      core::assess_quality(net.dep.graph,
                           std::vector<bool>(n, true), net.cb, 24);
  std::printf("void sizes: min %zu, max %zu; smallest certifiable tau: %u\n",
              q.min_void, q.max_void, q.certifiable_tau);
  if (q.certifiable_tau == 0) {
    std::puts("no certificate up to tau=24 — the strip is torn");
    return 0;
  }

  const double dmax =
      core::paper_hole_diameter_bound(q.certifiable_tau, gamma, 1.0);
  if (dmax == 0.0) {
    std::printf("gamma=%.1f: full blanket coverage is certified.\n", gamma);
  } else {
    std::printf("barrier interpretation at gamma=%.1f: any target crossing "
                "the strip is confined inside a %u-hop cycle; it cannot "
                "travel more than %.1f*Rc undetected (Proposition 1).\n",
                gamma, q.certifiable_tau, dmax);
  }

  // Ground-truth the interpretation: measure the actual worst hole.
  const auto analysis = geom::analyze_coverage(
      net.dep.positions, std::vector<bool>(n, true), 1.0 / gamma, net.target);
  std::printf("measured: %.1f%% of area sensed, worst hole diameter %.2f "
              "(bound %.2f)\n",
              100.0 * analysis.covered_fraction, analysis.max_hole_diameter,
              dmax);
  return analysis.max_hole_diameter <= dmax + 0.1 ? 0 : 1;
}
