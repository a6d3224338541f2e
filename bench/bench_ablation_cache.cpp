// Ablation — the dirty-set verdict cache (DESIGN.md §3): the VPT verdict of
// a node depends only on its punctured k-hop neighbourhood, so after a
// deletion round only nodes within k hops of a deletion need re-testing.
// This bench compares VPT-test counts and wall time with and without the
// cache, asserting identical schedules.
#include <chrono>
#include <cstdio>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto n =
      static_cast<std::size_t>(args.get_int("nodes", 300, "deployed nodes"));
  const double degree = args.get_double("degree", 20.0, "target avg degree");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 13, "workload seed"));
  const auto threads = static_cast<unsigned>(args.get_int(
      "threads", 1, "VPT worker threads (0 = hardware concurrency)"));
  args.finish();
  obs::set_enabled(true);

  util::Rng rng(seed);
  const core::Network net = core::prepare_network(
      gen::random_connected_udg(
          n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
      1.0);

  std::printf("Ablation: dirty-set verdict caching (%zu nodes, degree "
              "%.0f)\n\n",
              n, degree);
  util::Table table({"tau", "tests (cached)", "tests (uncached)", "saved",
                     "time cached (ms)", "time uncached (ms)", "identical"});

  for (unsigned tau = 3; tau <= 6; ++tau) {
    core::DccConfig cached;
    cached.num_threads = threads;
    cached.tau = tau;
    cached.seed = seed;
    core::DccConfig uncached = cached;
    uncached.incremental = false;

    const auto t0 = std::chrono::steady_clock::now();
    const obs::Metrics m0 = obs::snapshot();
    const auto a = core::run_dcc(net, cached);
    const auto t1 = std::chrono::steady_clock::now();
    const obs::Metrics m1 = obs::snapshot();
    const auto b = core::run_dcc(net, uncached);
    const auto t2 = std::chrono::steady_clock::now();
    const obs::Metrics m2 = obs::snapshot();

    // Cross-check the scheduler's own tally against the shared telemetry
    // registry — the same counter a `tgcover --obs-out` bundle records.
    // Logical counters are live in both TGC_OBS builds.
    {
      const auto reg_cached = (m1 - m0).get(obs::CounterId::kVptTests);
      const auto reg_uncached = (m2 - m1).get(obs::CounterId::kVptTests);
      TGC_CHECK_MSG(reg_cached == a.result.vpt_tests &&
                        reg_uncached == b.result.vpt_tests,
                    "registry VPT-test counts (" << reg_cached << ", "
                        << reg_uncached << ") diverge from scheduler tallies ("
                        << a.result.vpt_tests << ", " << b.result.vpt_tests
                        << ")");
    }

    const double ms_cached =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double ms_uncached =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    const double saved =
        1.0 - static_cast<double>(a.result.vpt_tests) /
                  static_cast<double>(b.result.vpt_tests);
    table.add_row(
        {std::to_string(tau), std::to_string(a.result.vpt_tests),
         std::to_string(b.result.vpt_tests),
         util::Table::num(100.0 * saved, 1) + "%",
         util::Table::num(ms_cached, 1), util::Table::num(ms_uncached, 1),
         a.result.active == b.result.active ? "yes" : "NO"});
  }
  table.print();
  return 0;
}
