// Surveillance — QoC-driven partial coverage (Sections III-B/C).
//
// A target-tracking application tolerates small undetected regions as long
// as a moving target cannot travel more than D along a straight line without
// detection. The worst-case hole diameter bounds exactly that, so the
// operator specifies (γ, D) and the library picks the *largest admissible
// confine size* — saving the most energy Proposition 1 allows — schedules,
// certifies, and reports the measured quality of coverage.
//
//   surveillance [--gamma 1.6] [--max-hole 1.0] [--nodes 400]
#include <cstdio>

#include "tgcover/core/confine.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/coverage.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const double gamma =
      args.get_double("gamma", 1.6, "sensing ratio Rc/Rs (<= 2)");
  const double max_hole = args.get_double(
      "max-hole", 1.0, "largest tolerable hole diameter, in units of Rc");
  const auto n = args.get_uint<std::size_t>("nodes", 400, "deployed nodes");
  const auto seed = args.get_uint<std::uint64_t>("seed", 2718, "workload seed");
  args.finish();

  // Pick τ from the requirement (largest admissible → sparsest set).
  const core::TauChoice choice =
      core::max_admissible_tau(gamma, max_hole, 1.0, 9);
  std::printf("requirement: gamma=%.2f, max hole diameter %.2f*Rc\n", gamma,
              max_hole);
  if (choice.guaranteed) {
    std::printf("selected confine size tau=%u (%s branch of Proposition 1)\n",
                choice.tau, choice.blanket ? "blanket" : "partial");
  } else {
    std::printf("no confine size guarantees this requirement at gamma=%.2f; "
                "falling back to best-effort tau=3\n",
                gamma);
  }

  const double side = gen::side_for_average_degree(n, 1.0, 25.0);
  util::Rng rng(seed);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(n, side, 1.0, rng), 1.0);

  const std::vector<bool> everyone(net.dep.graph.num_vertices(), true);
  if (!core::criterion_holds(net.dep.graph, everyone, net.cb, choice.tau)) {
    std::puts("note: the deployed network itself does not certify at this tau"
              " (it has larger voids); the location-free guarantee is then"
              " best-effort");
  }

  core::DccConfig config;
  config.tau = choice.tau;
  config.seed = seed;
  const core::ScheduleSummary s = core::run_dcc(net, config);
  const bool certified =
      core::criterion_holds(net.dep.graph, s.result.active, net.cb, choice.tau);
  std::printf("scheduled: %zu of %zu nodes awake (%.1f%% energy saved), "
              "criterion %s\n",
              s.result.survivors, n,
              100.0 * static_cast<double>(s.result.deleted) /
                  static_cast<double>(n),
              certified ? "holds" : "FAILS");

  const auto analysis = geom::analyze_coverage(
      net.dep.positions, s.result.active, 1.0 / gamma, net.target);
  std::printf("measured worst-case QoC: %zu holes, max diameter %.3f "
              "(required <= %.2f)\n",
              analysis.holes.size(), analysis.max_hole_diameter, max_hole);
  const bool ok = !certified || analysis.max_hole_diameter <= max_hole + 0.1;
  std::puts(ok ? "requirement met" : "REQUIREMENT VIOLATED");
  return ok ? 0 : 1;
}
