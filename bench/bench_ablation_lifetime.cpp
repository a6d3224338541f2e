// Ablation — network lifetime under coverage-set rotation: the paper's
// motivating claim ("always-on full blanket coverage will exhaust network
// energy rapidly") quantified. Three policies share the same deployment and
// energy model; the table reports certified epochs and the energy left.
#include <cstdio>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/lifetime.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/stats.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>("nodes", 180, "deployed nodes");
  const double degree = args.get_double("degree", 18.0, "target avg degree");
  const auto tau = args.get_uint<unsigned>("tau", 4, "confine size");
  const auto seed = args.get_uint<std::uint64_t>("seed", 37, "workload seed");
  args.finish();

  core::Network net;
  bool ok = false;
  for (std::uint64_t attempt = 0; attempt < 16 && !ok; ++attempt) {
    util::Rng rng(util::splitmix64(seed + attempt));
    net = core::prepare_network(
        gen::random_connected_udg(
            n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
        1.0);
    const std::vector<bool> all(net.dep.graph.num_vertices(), true);
    ok = core::criterion_holds(net.dep.graph, all, net.cb, tau);
  }
  if (!ok) {
    std::puts("no certifying instance found; raise --degree");
    return 1;
  }

  core::LifetimeOptions options;
  options.dcc.tau = tau;
  options.dcc.seed = seed;
  options.energy.initial = 30.0;
  options.energy.awake_cost = 2.0;
  options.energy.asleep_cost = 0.2;
  options.max_epochs = 1000;
  options.tau_cap = 12;

  std::printf("Ablation: lifetime under rotation (%zu nodes, tau=%u; an "
              "always-awake node lasts %.0f epochs).\nCoverage degrades "
              "gracefully: 'fine' counts epochs certified at tau<=%u, "
              "'total' any tau<=%u.\n\n",
              n, tau, options.energy.initial / options.energy.awake_cost,
              tau, options.tau_cap);

  util::Table table({"policy", "fine epochs", "total epochs", "vs static",
                     "mean residual energy"});
  double static_lifetime = 1.0;
  struct Row {
    const char* name;
    core::RotationPolicy policy;
  };
  for (const Row row : {Row{"static (schedule once)",
                            core::RotationPolicy::kStatic},
                        Row{"reschedule each epoch",
                            core::RotationPolicy::kReschedule},
                        Row{"energy-aware rotation",
                            core::RotationPolicy::kEnergyAware}}) {
    options.policy = row.policy;
    const core::LifetimeResult r = core::simulate_lifetime(
        net.dep.graph, net.internal, net.cb, options);
    util::RunningStat residual;
    for (graph::VertexId v = 0; v < net.dep.graph.num_vertices(); ++v) {
      if (net.internal[v]) residual.add(r.final_energy[v]);
    }
    if (row.policy == core::RotationPolicy::kStatic) {
      static_lifetime = static_cast<double>(std::max<std::size_t>(1, r.lifetime));
    }
    table.add_row({row.name, std::to_string(r.fine_epochs),
                   std::to_string(r.lifetime) + (r.censored ? "+" : ""),
                   util::Table::num(static_cast<double>(r.lifetime) /
                                        static_lifetime, 2) + "x",
                   util::Table::num(residual.mean(), 1)});
  }
  table.print();
  std::puts("\nHonest finding: structurally irreplaceable nodes — the ones in");
  std::puts("EVERY coverage set — bound the lifetime of all policies; rotation");
  std::puts("only smooths around them (and battery heterogeneity is what lets");
  std::puts("it help at all). The energy goes where the topology demands.");
  return 0;
}
