// Parallel-engine ablation, two sections:
//
//  * "sweep" — VPT deletability-test throughput (tests/sec) versus
//    worker-thread count, at two deployment scales. This measures exactly
//    the fan-out the scheduler parallelises — a sweep of
//    `vpt_vertex_deletable` over every internal node of a fixed snapshot,
//    fanned over a util::ThreadPool with one warm VptWorkspace per worker —
//    so the numbers predict the Step-1 wall-clock of `dcc_schedule`
//    directly. Verdicts are pure functions of the snapshot; the sweep also
//    cross-checks that every thread count produces identical verdict
//    vectors.
//
//  * "dcc_inc" — full multi-round DCC schedules (cross-round verdict caching
//    with dirty-frontier invalidation, DESIGN.md §11) at node counts up to
//    16× the sweep's large size (25,600 at the defaults), at 1/2/4 threads
//    at the base size and at 1 and 4 threads above it. The bench asserts
//    bit-identical schedules across thread counts and records the cache
//    counters (`verdict_cache_hits`, `dirty_nodes`) plus per-round logical
//    cost.
//
// `--json PATH` additionally emits a machine-readable record so future PRs
// can diff perf trajectories (the committed baseline is BENCH_parallel.json;
// every logical column is exact-match gated by tools/bench_gate.py). A row's
// `speedup_vs_1t` is null when its deployment has no 1-thread row or its
// thread count exceeds `hardware_concurrency`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace {

using namespace tgc;

struct Sample {
  std::string mode;  // "sweep" | "dcc_inc"
  std::size_t nodes = 0;
  unsigned threads = 0;
  std::size_t tests = 0;
  std::uint64_t bfs_expansions = 0;  // per run, from the registry
  std::uint64_t logical_cost = 0;    // machine-independent scalar per run
  std::uint64_t cache_hits = 0;      // verdicts reused (dcc_inc only)
  std::uint64_t dirty_nodes = 0;     // dirty-frontier marks (dcc_inc only)
  std::size_t rounds = 0;            // deletion rounds (dcc_inc only)
  double seconds = 0.0;
  double tests_per_sec = 0.0;
  // Vs the 1-thread row of the same deployment; empty when that row was
  // never measured or threads exceed the machine's cores.
  std::optional<double> speedup;
};

/// The speedup a row may claim: none without a 1-thread rate to divide by,
/// and none for an oversubscribed row.
std::optional<double> speedup_of(double tests_per_sec, double serial_rate,
                                 unsigned threads, unsigned hw) {
  if (serial_rate <= 0.0 || threads > hw) return std::nullopt;
  return tests_per_sec / serial_rate;
}

/// One timed sweep: every internal node's verdict, fanned over `threads`
/// workers. Returns wall-clock seconds and fills `verdicts`.
double timed_sweep(const core::Network& net, const core::VptConfig& vpt,
                   const std::vector<graph::VertexId>& to_test,
                   unsigned threads, std::vector<char>& verdicts) {
  util::ThreadPool pool(threads);
  std::vector<core::VptWorkspace> workspaces(pool.num_workers());
  verdicts.assign(to_test.size(), 0);
  const std::vector<bool> active(net.dep.graph.num_vertices(), true);

  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(0, to_test.size(), [&](std::size_t i, unsigned worker) {
    verdicts[i] = core::vpt_vertex_deletable(net.dep.graph, active, to_test[i],
                                             vpt, workspaces[worker])
                      ? 1
                      : 0;
  });
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const double degree =
      args.get_double("degree", 25.0, "target avg degree (paper: 25)");
  const auto tau = args.get_uint<unsigned>("tau", 4, "confine size");
  const auto seed = args.get_uint<std::uint64_t>("seed", 42, "deployment seed");
  const auto reps = args.get_uint<std::size_t>(
      "reps", 3, "timed repetitions per configuration (best-of)");
  const std::string json_path = args.get_string(
      "json", "", "write machine-readable results to this file");
  const auto small_n = args.get_uint<std::size_t>(
      "nodes-small", 400, "small deployment size");
  const auto large_n = args.get_uint<std::size_t>(
      "nodes-large", 1600, "large deployment size");
  args.finish();
  obs::set_enabled(true);

  // Open the JSON sink up front so a bad path fails before the sweep runs.
  std::ofstream json_out;
  if (!json_path.empty()) {
    json_out.open(json_path);
    TGC_CHECK_MSG(json_out.good(), "cannot open '" << json_path << "'");
  }

  const unsigned hw = util::ThreadPool::resolve_num_threads(0);
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  std::printf("Parallel VPT engine ablation: tests/sec vs thread count\n");
  std::printf("tau %u, degree %.0f, hardware concurrency %u\n\n", tau, degree,
              hw);

  const core::VptConfig vpt{tau, 0};
  std::vector<Sample> samples;

  for (const std::size_t n : {small_n, large_n}) {
    util::Rng rng(seed);
    const core::Network net = core::prepare_network(
        gen::random_connected_udg(
            n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
        1.0);
    std::vector<graph::VertexId> to_test;
    for (graph::VertexId v = 0; v < net.dep.graph.num_vertices(); ++v) {
      if (net.internal[v]) to_test.push_back(v);
    }

    std::vector<char> reference;  // 1-thread verdicts, the ground truth
    double serial_rate = 0.0;
    for (const unsigned threads : thread_counts) {
      std::vector<char> verdicts;
      double best = 1e300;
      // The test count is read back from the shared telemetry registry (the
      // same counters a `tgcover --obs-out` bundle records) rather than a
      // private tally, so bench numbers and CLI telemetry cannot drift apart.
      const obs::Metrics before = obs::snapshot();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        best = std::min(best, timed_sweep(net, vpt, to_test, threads, verdicts));
      }
      const obs::Metrics delta = obs::snapshot() - before;
      const std::size_t tests = delta.get(obs::CounterId::kVptTests) / reps;
      TGC_CHECK_MSG(tests == to_test.size(),
                    "registry counted " << tests << " VPT tests per sweep, "
                                        << "expected " << to_test.size());
      if (threads == 1) {
        reference = verdicts;
      } else {
        TGC_CHECK_MSG(verdicts == reference,
                      "parallel verdicts diverge from serial at threads="
                          << threads);
      }

      Sample s;
      s.mode = "sweep";
      s.nodes = n;
      s.threads = threads;
      s.tests = tests;
      s.bfs_expansions = delta.get(obs::CounterId::kBfsExpansions) / reps;
      s.logical_cost = obs::logical_cost(delta.cost.total()) / reps;
      s.seconds = best;
      s.tests_per_sec = static_cast<double>(to_test.size()) / best;
      if (threads == 1) serial_rate = s.tests_per_sec;
      s.speedup = speedup_of(s.tests_per_sec, serial_rate, threads, hw);
      samples.push_back(s);
      std::fprintf(stderr, "  n %zu threads %u: %.3fs (%.0f tests/sec)\n", n,
                   threads, best, s.tests_per_sec);
    }
  }

  util::Table table({"nodes", "threads", "vpt tests", "seconds", "tests/sec",
                     "speedup vs 1T"});
  for (const Sample& s : samples) {
    table.add_row({std::to_string(s.nodes), std::to_string(s.threads),
                   std::to_string(s.tests), util::Table::num(s.seconds, 3),
                   util::Table::num(s.tests_per_sec, 1),
                   s.speedup.has_value() ? util::Table::num(*s.speedup, 2)
                                         : "-"});
  }
  table.print();
  std::puts("\nVerdicts are bit-identical across all thread counts (checked");
  std::puts("every run). Speedup tracks the physical core count; rows with");
  std::puts("more threads than cores claim none (-).");

  // --------------------------------------------------- multi-round DCC
  //
  // Node counts large_n, 4·large_n, 16·large_n (1,600 / 6,400 / 25,600 at
  // the defaults). At the base size the schedule runs at 1/2/4 threads, and
  // the larger sizes run at 1 and 4 threads, so every size has a 1-thread
  // row to claim its 4-thread speedup against; the bench asserts identical
  // schedules across thread counts.
  std::printf("\nMulti-round DCC schedules\n\n");
  for (const std::size_t n : {large_n, 4 * large_n, 16 * large_n}) {
    util::Rng rng(seed);
    const core::Network net = core::prepare_network(
        gen::random_connected_udg(
            n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
        1.0);
    const std::vector<unsigned> dcc_threads =
        n == large_n ? std::vector<unsigned>{1, 2, 4}
                     : std::vector<unsigned>{1, 4};
    std::vector<bool> reference_active;
    double serial_rate = 0.0;
    for (const unsigned threads : dcc_threads) {
      core::DccConfig config;
      config.tau = tau;
      config.seed = seed;
      config.num_threads = threads;

      const obs::Metrics before = obs::snapshot();
      const auto start = std::chrono::steady_clock::now();
      const core::ScheduleSummary sum = core::run_dcc(net, config);
      const auto stop = std::chrono::steady_clock::now();
      const obs::Metrics delta = obs::snapshot() - before;

      // Every thread count must produce the same schedule.
      if (reference_active.empty()) {
        reference_active = sum.result.active;
      } else {
        TGC_CHECK_MSG(sum.result.active == reference_active,
                      "schedule diverged at n=" << n << " threads="
                                                << threads);
      }

      Sample s;
      s.mode = "dcc_inc";
      s.nodes = n;
      s.threads = threads;
      s.tests = sum.result.vpt_tests;
      s.bfs_expansions = delta.get(obs::CounterId::kBfsExpansions);
      s.logical_cost = obs::logical_cost(delta.cost.total());
      s.cache_hits = delta.get(obs::CounterId::kVerdictCacheHits);
      s.dirty_nodes = delta.get(obs::CounterId::kDirtyNodes);
      s.rounds = sum.result.rounds;
      s.seconds = std::chrono::duration<double>(stop - start).count();
      s.tests_per_sec = static_cast<double>(s.tests) / s.seconds;
      if (threads == 1) serial_rate = s.tests_per_sec;
      s.speedup = speedup_of(s.tests_per_sec, serial_rate, threads, hw);
      samples.push_back(s);
      std::fprintf(stderr, "  n %zu dcc threads %u: %.3fs (%zu rounds)\n", n,
                   threads, s.seconds, s.rounds);
    }
  }

  util::Table dcc_table({"nodes", "threads", "rounds", "vpt tests",
                         "cache hits", "dirty", "bfs", "cost/round",
                         "seconds"});
  for (const Sample& s : samples) {
    if (s.mode == "sweep") continue;
    dcc_table.add_row(
        {std::to_string(s.nodes), std::to_string(s.threads),
         std::to_string(s.rounds), std::to_string(s.tests),
         std::to_string(s.cache_hits), std::to_string(s.dirty_nodes),
         std::to_string(s.bfs_expansions),
         std::to_string(s.rounds == 0 ? s.logical_cost
                                      : s.logical_cost / s.rounds),
         util::Table::num(s.seconds, 3)});
  }
  dcc_table.print();

  if (!json_path.empty()) {
    std::ofstream& out = json_out;
    out << "{\n"
        << "  \"bench\": \"bench_ablation_parallel\",\n"
        << "  \"tau\": " << tau << ",\n"
        << "  \"degree\": " << degree << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      out << "    {\"mode\": \"" << s.mode << "\", \"nodes\": " << s.nodes
          << ", \"threads\": " << s.threads
          << ", \"vpt_tests\": " << s.tests
          << ", \"bfs_expansions\": " << s.bfs_expansions
          << ", \"logical_cost\": " << s.logical_cost
          << ", \"verdict_cache_hits\": " << s.cache_hits
          << ", \"dirty_nodes\": " << s.dirty_nodes
          << ", \"rounds\": " << s.rounds
          << ", \"seconds\": " << s.seconds
          << ", \"tests_per_sec\": " << s.tests_per_sec
          << ", \"speedup_vs_1t\": ";
      if (s.speedup.has_value()) {
        out << *s.speedup;
      } else {
        out << "null";
      }
      out << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
