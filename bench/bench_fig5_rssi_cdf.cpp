// Figure 5 — empirical CDF of the per-edge average RSSI of the (synthetic)
// GreenOrbs trace. The y-axis, as in the paper, is the proportion of
// undirected edges whose average RSSI is greater than or equal to the
// threshold on the x-axis; the paper picks ≈ −85 dBm to retain 80%.
#include <cstdio>

#include "tgcover/trace/greenorbs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/stats.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  trace::GreenOrbsOptions options;
  options.nodes = args.get_uint<std::size_t>(
      "nodes", 296, "sensors in the forest strip");
  options.seed = args.get_uint<std::uint64_t>("seed", 2009, "workload seed");
  options.trace.epochs = args.get_uint<std::size_t>(
      "epochs", 288, "packet epochs accumulated (two days at 10 min)");
  args.finish();

  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);

  std::printf("Figure 5 reproduction: CDF of per-edge average RSSI\n");
  std::printf("%zu nodes, %zu packets, %zu records, %zu undirected links "
              "observed in both directions\n\n",
              options.nodes, net.trace.packets, net.trace.records,
              net.trace.links.size());

  const util::EmpiricalCdf cdf(trace::link_rssi_samples(net.trace));
  util::Table table({"threshold (dBm)", "fraction of edges >= threshold"});
  for (int dbm = -45; dbm >= -95; dbm -= 5) {
    table.add_row({std::to_string(dbm),
                   util::Table::num(cdf.fraction_at_least(dbm), 3)});
  }
  table.print();

  std::printf("\nthreshold retaining 80%% of edges: %.1f dBm (paper: near "
              "-85 dBm)\n",
              net.threshold_dbm);
  std::printf("links kept: %zu, graph: %zu nodes in the main component, %zu "
              "edges\n",
              net.graph.num_edges(),
              net.boundary_count() + net.internal_count(),
              net.graph.num_edges());
  return 0;
}
