// Figure 4 — DCC vs HGC: the fraction of nodes saved,
// λ = (n1 − n2)/n1, where n1 is the HGC coverage-set size and n2 the DCC
// set at the largest admissible confine size, for maximum-hole-diameter
// requirements D ∈ {0 (full), 0.4, 0.8, 1.2}·Rc while the sensing ratio γ
// decreases from 2.0 to 1.0 (Rs grows from 0.5·Rc to Rc).
//
// τ selection follows Proposition 1; with --paper-bound only the paper's
// (τ-2)·Rc diameter bound is used for the partial branch (which makes the
// D = 0.4 and 0.8 curves coincide with Full — see EXPERIMENTS.md), while
// the default adds the tighter γ-aware bound that separates the curves.
#include <cstdio>

#include "tgcover/core/confine.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/topo/hgc.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/stats.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n = args.get_uint<std::size_t>(
      "nodes", 240, "number of deployed nodes (paper: 1600)");
  const double degree =
      args.get_double("degree", 25.0, "target avg degree (paper: 25)");
  const auto runs = args.get_uint<std::size_t>(
      "runs", 3, "random deployments to average (paper: 100)");
  const auto seed = args.get_uint<std::uint64_t>("seed", 7, "base seed");
  const bool paper_bound = args.get_flag(
      "paper-bound", "use only the paper's (tau-2)Rc bound for tau selection");
  const auto tau_cap =
      args.get_uint<unsigned>("tau-cap", 9, "largest tau tried");
  const auto threads = args.get_uint<unsigned>(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)");
  args.finish();

  const double side = gen::side_for_average_degree(n, 1.0, degree);
  const std::vector<double> gammas{2.0, 1.8, 1.6, 1.4, 1.2, 1.0};
  const std::vector<double> requirements{0.0, 0.4, 0.8, 1.2};

  std::printf("Figure 4 reproduction: saved nodes lambda = (n1-n2)/n1, DCC vs "
              "HGC\n%zu nodes, degree %.0f, %zu runs, %s tau selection\n\n",
              n, degree, runs,
              paper_bound ? "paper-bound" : "refined-bound");

  // lambda[requirement][gamma] accumulated over runs.
  std::vector<std::vector<util::RunningStat>> lambda(
      requirements.size(), std::vector<util::RunningStat>(gammas.size()));
  util::RunningStat hgc_sizes;

  util::Rng master(seed);
  std::size_t usable_runs = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    // HGC needs a trivial-H1 instance; scan forks until one verifies.
    core::Network net;
    bool found = false;
    for (std::uint64_t sub = 0; sub < 24 && !found; ++sub) {
      util::Rng rng = master.fork(run * 100 + sub);
      net = core::prepare_network(
          gen::random_connected_udg(n, side, 1.0, rng), 1.0);
      found = topo::hgc_verify(net.dep.graph);
    }
    if (!found) {
      std::fprintf(stderr, "  run %zu: no H1-trivial instance, skipped\n", run);
      continue;
    }
    ++usable_runs;

    util::Rng hgc_rng(seed + run);
    const topo::HgcResult hgc =
        topo::hgc_schedule(net.dep.graph, net.internal, hgc_rng);
    const auto n1 = static_cast<double>(hgc.survivors);
    hgc_sizes.add(n1);
    std::fprintf(stderr, "  run %zu: HGC survivors %zu\n", run, hgc.survivors);

    // DCC survivors per τ, computed once and reused across (D, γ) cells.
    std::vector<double> dcc_by_tau(tau_cap + 1, -1.0);
    auto dcc_survivors = [&](unsigned tau) {
      if (dcc_by_tau[tau] < 0.0) {
        core::DccConfig config;
        config.num_threads = threads;
        config.tau = tau;
        config.seed = seed + run;
        dcc_by_tau[tau] =
            static_cast<double>(core::run_dcc(net, config).result.survivors);
        std::fprintf(stderr, "    DCC tau %u: %.0f survivors\n", tau,
                     dcc_by_tau[tau]);
      }
      return dcc_by_tau[tau];
    };

    for (std::size_t d = 0; d < requirements.size(); ++d) {
      for (std::size_t gi = 0; gi < gammas.size(); ++gi) {
        const core::TauChoice choice = core::max_admissible_tau(
            gammas[gi], requirements[d], 1.0, tau_cap, !paper_bound);
        const double n2 = dcc_survivors(choice.tau);
        lambda[d][gi].add((n1 - n2) / n1);
      }
    }
  }

  if (usable_runs == 0) {
    std::puts("no usable runs (H1 never trivial) — increase --nodes/--degree");
    return 1;
  }

  std::vector<std::string> headers{"gamma"};
  headers.emplace_back("Full (D=0)");
  headers.emplace_back("D=0.4");
  headers.emplace_back("D=0.8");
  headers.emplace_back("D=1.2");
  headers.emplace_back("tau(Full)");
  headers.emplace_back("tau(1.2)");
  util::Table table(std::move(headers));
  for (std::size_t gi = 0; gi < gammas.size(); ++gi) {
    std::vector<std::string> row{util::Table::num(gammas[gi], 1)};
    for (std::size_t d = 0; d < requirements.size(); ++d) {
      row.push_back(util::Table::num(lambda[d][gi].mean(), 3));
    }
    row.push_back(std::to_string(
        core::max_admissible_tau(gammas[gi], 0.0, 1.0, tau_cap, !paper_bound)
            .tau));
    row.push_back(std::to_string(
        core::max_admissible_tau(gammas[gi], 1.2, 1.0, tau_cap, !paper_bound)
            .tau));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nHGC baseline size n1: mean %.1f over %zu usable runs\n",
              hgc_sizes.mean(), usable_runs);
  std::puts("Paper's shape (Fig. 4): lambda grows as gamma shrinks and as the");
  std::puts("permitted hole diameter grows; HGC cannot exploit either.");
  return 0;
}
