// Forest monitoring — the GreenOrbs-style pipeline of Section VI-B, end to
// end: synthesize a two-day RSSI packet trace from a long-narrow forest
// deployment, extract the connectivity graph by thresholding the accumulated
// per-link averages, select a connected boundary ring, and run DCC on the
// resulting *irregular, non-UDG* topology.
//
//   forest_monitoring [--tau 5] [--nodes 296]
#include <cstdio>
#include <vector>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/trace/greenorbs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto tau = args.get_uint<unsigned>("tau", 5, "confine size");
  trace::GreenOrbsOptions options;
  options.nodes = args.get_uint<std::size_t>(
      "nodes", 296, "sensors in the forest");
  options.seed = args.get_uint<std::uint64_t>("seed", 2009, "workload seed");
  args.finish();

  std::puts("forest monitoring: building the trace-derived topology...");
  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);
  std::printf("  %zu packets, %zu RSSI records accumulated over %zu epochs\n",
              net.trace.packets, net.trace.records, options.trace.epochs);
  std::printf("  threshold %.1f dBm keeps %zu links (%.0f%% of %zu observed)"
              "\n",
              net.threshold_dbm, net.graph.num_edges(),
              100.0 * static_cast<double>(net.graph.num_edges()) /
                  static_cast<double>(net.trace.links.size()),
              net.trace.links.size());
  std::printf("  boundary ring: %zu nodes; inner nodes: %zu\n",
              net.boundary_count(), net.internal_count());

  core::DccConfig config;
  config.tau = tau;
  config.seed = options.seed;
  const core::DccResult result =
      core::dcc_schedule(net.graph, net.internal, config);
  std::size_t inner_left = 0;
  for (graph::VertexId v = 0; v < net.graph.num_vertices(); ++v) {
    if (net.internal[v] && result.active[v]) ++inner_left;
  }
  std::printf("DCC (tau=%u): %zu inner nodes stay awake, %zu sleep (%zu "
              "rounds)\n",
              tau, inner_left, result.deleted, result.rounds);

  // Theorem 5: DCC keeps τ-partitionability, so when the full trace
  // topology certifies at τ the survivors must certify too.
  const std::vector<bool> everyone(net.graph.num_vertices(), true);
  const bool network_certified =
      core::criterion_holds(net.graph, everyone, net.cb, tau);
  const bool certified =
      core::criterion_holds(net.graph, result.active, net.cb, tau);
  std::printf("cycle-partition criterion on the full topology: %s\n",
              network_certified ? "holds" : "does not hold (the trace "
                                            "topology has voids larger than "
                                            "tau)");
  std::printf("cycle-partition criterion on the survivors: %s\n",
              certified ? "holds" : "does not hold");
  if (network_certified && !certified) {
    std::puts("THEOREM 5 VIOLATED: the schedule lost a certificate the "
              "network has");
    return 1;
  }
  return 0;
}
