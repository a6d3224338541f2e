// Figure 6 — DCC on the (synthetic) GreenOrbs trace topology: the number of
// inner (internal) nodes left in the coverage set as the confine size grows
// from 3 to 8. The paper observes a steep drop from τ=3 to τ=5 — long trace
// links and the narrow shape let larger confine sizes exploit far fewer
// nodes — and flattening after.
#include <cstdio>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/scheduler.hpp"
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
  const auto tau_max =
      args.get_uint<unsigned>("tau-max", 8, "largest confine size");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);
  std::printf("Figure 6 reproduction: DCC on the trace topology\n");
  std::printf("%zu nodes in the main component (%zu boundary ring, %zu "
              "inner), %zu links, threshold %.1f dBm\n\n",
              net.boundary_count() + net.internal_count(),
              net.boundary_count(), net.internal_count(),
              net.graph.num_edges(), net.threshold_dbm);

  util::Table table({"confine size", "inner nodes left", "deleted", "rounds",
                     "criterion holds"});
  for (unsigned tau = 3; tau <= tau_max; ++tau) {
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
                   std::to_string(result.deleted),
                   std::to_string(result.rounds), ok ? "yes" : "NO"});
  }
  table.print();
  std::puts("\nPaper's shape (Fig. 6): inner-node count drops steeply from");
  std::puts("tau=3 to tau=5 and flattens afterwards.");
  return 0;
}
