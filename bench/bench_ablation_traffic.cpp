// Ablation — the real distributed protocol's communication cost: messages,
// payload bytes, engine rounds and MIS sub-rounds as the confine size (and
// hence the local radius k = ⌈τ/2⌉) grows; plus the oracle/distributed
// schedule equivalence check on each row.
#include <cstdio>

#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>("nodes", 200, "deployed nodes");
  const double degree = args.get_double("degree", 16.0, "target avg degree");
  const auto seed = args.get_uint<std::uint64_t>("seed", 19, "workload seed");
  const auto tau_max =
      args.get_uint<unsigned>("tau-max", 7, "largest confine size");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  util::Rng rng(seed);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(
          n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
      1.0);

  std::printf("Ablation: distributed protocol traffic (%zu nodes, degree "
              "%.0f, %zu links)\n\n",
              n, degree, net.dep.graph.num_edges());

  util::Table table({"tau", "k", "messages", "payload KiB", "engine rounds",
                     "MIS subrounds", "deletion rounds", "survivors",
                     "matches oracle"});
  for (unsigned tau = 3; tau <= tau_max; ++tau) {
    core::DccConfig config;
    config.num_threads = threads;
    config.tau = tau;
    config.seed = seed;
    const auto dist =
        core::dcc_schedule_distributed(net.dep.graph, net.internal, config);
    const auto oracle = core::dcc_schedule(net.dep.graph, net.internal, config);
    table.add_row(
        {std::to_string(tau), std::to_string(config.vpt().effective_k()),
         std::to_string(dist.traffic.messages),
         util::Table::num(
             static_cast<double>(dist.traffic.payload_bytes()) / 1024.0, 1),
         std::to_string(dist.traffic.rounds),
         std::to_string(dist.mis_subrounds),
         std::to_string(dist.schedule.rounds),
         std::to_string(dist.schedule.survivors),
         dist.schedule.active == oracle.active ? "yes" : "NO"});
  }
  table.print();
  std::puts("\nPayload grows with k (larger neighbourhoods to collect and");
  std::puts("wider MIS floods) — the price of larger confine sizes.");
  return 0;
}
