// Figure 2 — maximal vertex deletion snapshots: one random UDG network,
// reduced by DCC for τ = 3, 4, 5, 6. Prints the surviving-set sizes and
// verifies the coverage criterion on each reduced network; --dump <prefix>
// writes per-τ CSVs of node positions/roles for plotting the snapshots.
#include <cstdio>
#include <fstream>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>(
      "nodes", 450, "number of deployed nodes");
  const double degree = args.get_double("degree", 25.0, "target avg degree");
  const auto seed = args.get_uint<std::uint64_t>("seed", 2010, "workload seed");
  const auto tau_min =
      args.get_uint<unsigned>("tau-min", 3, "smallest confine size");
  const auto tau_max =
      args.get_uint<unsigned>("tau-max", 6, "largest confine size");
  const std::string dump =
      args.get_string("dump", "", "CSV prefix for snapshot dumps");
  const std::string svg =
      args.get_string("svg", "", "SVG prefix for snapshot renders");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  const double side = gen::side_for_average_degree(n, 1.0, degree);
  util::Rng rng(seed);
  core::Network net =
      core::prepare_network(gen::random_connected_udg(n, side, 1.0, rng), 1.0);

  std::printf("Figure 2 reproduction: maximal vertex deletion snapshots\n");
  std::printf("network: %zu nodes, %zu links, avg degree %.1f, side %.1f\n\n",
              net.dep.graph.num_vertices(), net.dep.graph.num_edges(),
              net.dep.graph.average_degree(), side);

  util::Table table({"tau", "survivors", "internal left", "deleted", "rounds",
                     "criterion initial", "criterion after"});

  const std::vector<bool> everyone(net.dep.graph.num_vertices(), true);
  for (unsigned tau = tau_min; tau <= tau_max; ++tau) {
    core::DccConfig config;
    config.num_threads = threads;
    config.tau = tau;
    config.seed = seed;
    const core::ScheduleSummary s = core::run_dcc(net, config);
    const bool initial_ok =
        core::criterion_holds(net.dep.graph, everyone, net.cb, tau);
    const bool ok =
        core::criterion_holds(net.dep.graph, s.result.active, net.cb, tau);
    table.add_row({std::to_string(tau), std::to_string(s.result.survivors),
                   std::to_string(s.internal_survivors),
                   std::to_string(s.result.deleted),
                   std::to_string(s.result.rounds), initial_ok ? "yes" : "no",
                   ok ? "yes" : "no"});

    if (!svg.empty()) {
      std::vector<io::NodeRole> roles(net.dep.graph.num_vertices());
      for (graph::VertexId v = 0; v < net.dep.graph.num_vertices(); ++v) {
        roles[v] = net.boundary[v]      ? io::NodeRole::kBoundary
                   : s.result.active[v] ? io::NodeRole::kActive
                                        : io::NodeRole::kDeleted;
      }
      io::render_network_svg(net.dep.graph, net.dep.positions, roles, net.cb,
                             svg + "_tau" + std::to_string(tau) + ".svg");
    }
    if (!dump.empty()) {
      std::ofstream out(dump + "_tau" + std::to_string(tau) + ".csv");
      out << "x,y,role\n";
      for (graph::VertexId v = 0; v < net.dep.graph.num_vertices(); ++v) {
        const char* role = net.boundary[v]          ? "boundary"
                           : s.result.active[v]     ? "active"
                                                    : "deleted";
        out << net.dep.positions[v].x << ',' << net.dep.positions[v].y << ','
            << role << '\n';
      }
    }
  }

  table.print();
  std::puts("\nPaper's shape: the surviving set shrinks as the confine size");
  std::puts("grows, and no further node can be deleted at the fixpoint.");
  return 0;
}
