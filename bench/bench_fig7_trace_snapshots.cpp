// Figure 7 — network snapshots of DCC on the trace topology, τ = 3…7.
// The paper's instance keeps 17, 8, 6, 5, 4 inner nodes; this prints our
// counts and, with --dump <prefix>, writes per-τ CSVs of positions/roles so
// the snapshots can be plotted like Figs. 7(b)-(f).
#include <cstdio>
#include <fstream>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/trace/greenorbs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  trace::GreenOrbsOptions options;
  options.nodes = args.get_uint<std::size_t>(
      "nodes", 296, "sensors in the forest strip");
  options.seed = args.get_uint<std::uint64_t>("seed", 2009, "workload seed");
  options.trace.epochs = args.get_uint<std::size_t>(
      "epochs", 288, "packet epochs accumulated");
  const std::string dump =
      args.get_string("dump", "", "CSV prefix for snapshot dumps");
  const std::string svg =
      args.get_string("svg", "", "SVG prefix for snapshot renders");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);
  std::printf("Figure 7 reproduction: trace-topology snapshots (paper keeps "
              "17, 8, 6, 5, 4 inner nodes for tau = 3..7)\n");
  std::printf("network: %zu nodes (%zu boundary), %zu links\n\n",
              net.boundary_count() + net.internal_count(),
              net.boundary_count(), net.graph.num_edges());

  util::Table table({"tau", "inner nodes left", "criterion holds"});
  for (unsigned tau = 3; tau <= 7; ++tau) {
    core::DccConfig config;
    config.num_threads = threads;
    config.tau = tau;
    config.seed = options.seed;
    const core::DccResult result =
        core::dcc_schedule(net.graph, net.internal, config);
    std::size_t inner_left = 0;
    for (graph::VertexId v = 0; v < net.graph.num_vertices(); ++v) {
      if (net.internal[v] && result.active[v]) ++inner_left;
    }
    const bool ok =
        core::criterion_holds(net.graph, result.active, net.cb, tau);
    table.add_row({std::to_string(tau), std::to_string(inner_left),
                   ok ? "yes" : "NO"});

    if (!svg.empty()) {
      std::vector<io::NodeRole> roles(net.graph.num_vertices());
      for (graph::VertexId v = 0; v < net.graph.num_vertices(); ++v) {
        roles[v] = !net.in_network[v]   ? io::NodeRole::kHidden
                   : net.boundary[v]    ? io::NodeRole::kBoundary
                   : result.active[v]   ? io::NodeRole::kActive
                                        : io::NodeRole::kDeleted;
      }
      io::render_network_svg(net.graph, net.dep.positions, roles, net.cb,
                             svg + "_tau" + std::to_string(tau) + ".svg");
    }
    if (!dump.empty()) {
      std::ofstream out(dump + "_tau" + std::to_string(tau) + ".csv");
      out << "x,y,role\n";
      for (graph::VertexId v = 0; v < net.graph.num_vertices(); ++v) {
        if (!net.in_network[v]) continue;
        const char* role = net.boundary[v]      ? "boundary"
                           : result.active[v]   ? "inner-active"
                                                : "deleted";
        out << net.dep.positions[v].x << ',' << net.dep.positions[v].y << ','
            << role << '\n';
      }
    }
  }
  table.print();
  return 0;
}
