// Node failures — incremental repair of a broken schedule.
//
// A scheduled network saves energy precisely because most nodes sleep; when
// awake coverage-set nodes crash, the confine-coverage certificate can
// break. This example schedules, kills random awake nodes, shows the
// certificate breaking, and repairs it by waking only the sleepers near the
// failures (dcc_repair) — comparing the cost against a full re-deployment.
//
//   node_failures [--tau 4] [--failures 8] [--nodes 350]
#include <cstdio>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto tau = args.get_uint<unsigned>("tau", 4, "confine size");
  const auto n = args.get_uint<std::size_t>("nodes", 350, "deployed nodes");
  const auto failures = args.get_uint<std::size_t>(
      "failures", 8, "awake nodes to crash");
  const auto seed = args.get_uint<std::uint64_t>("seed", 909, "workload seed");
  args.finish();

  util::Rng rng(seed);
  const double side = gen::side_for_average_degree(n, 1.0, 25.0);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(n, side, 1.0, rng), 1.0);

  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  const core::ScheduleSummary schedule = core::run_dcc(net, config);
  const bool before_ok = core::criterion_holds(
      net.dep.graph, schedule.result.active, net.cb, tau);
  std::printf("schedule: %zu of %zu awake; certificate %s\n",
              schedule.result.survivors, n, before_ok ? "holds" : "fails");
  if (!before_ok) {
    std::puts("instance does not certify; pick another seed");
    return 0;
  }

  // Crash random awake internal nodes.
  std::vector<bool> failed(n, false);
  std::vector<graph::VertexId> awake_internal;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (schedule.result.active[v] && net.internal[v]) {
      awake_internal.push_back(v);
    }
  }
  util::Rng kill_rng(seed + 1);
  kill_rng.shuffle(awake_internal);
  const std::size_t kills = std::min(failures, awake_internal.size());
  for (std::size_t i = 0; i < kills; ++i) failed[awake_internal[i]] = true;

  std::vector<bool> broken = schedule.result.active;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (failed[v]) broken[v] = false;
  }
  const bool broken_ok = core::criterion_holds(net.dep.graph, broken, net.cb, tau);
  std::printf("crashed %zu awake nodes; certificate now %s\n", kills,
              broken_ok ? "still holds (redundancy absorbed it)" : "BROKEN");

  const core::RepairResult repair =
      core::dcc_repair(net.dep.graph, net.internal, schedule.result.active,
                       failed, net.cb, config);
  std::printf("repair: woke %zu sleepers (radius %u), cleanup re-slept %zu; "
              "certificate %s\n",
              repair.woken, repair.final_radius, repair.redeleted,
              repair.criterion_restored ? "RESTORED" : "not restorable");
  std::printf("awake after repair: %zu — versus %zu sleeping nodes a full "
              "wake-up would have burned\n",
              repair.survivors, n - schedule.result.survivors);
  return repair.criterion_restored ? 0 : 1;
}
