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
//  * "dcc_inc" / "dcc_full" — full multi-round DCC schedules with the
//    incremental engine (cross-round verdict caching + dirty-frontier
//    invalidation, DESIGN.md §11) against full per-round recompute, at node
//    counts up to 16× the sweep's large size (25,600 at the defaults). The
//    bench asserts bit-identical schedules between the two modes and across
//    thread counts, and records the incremental counters
//    (`verdict_cache_hits`, `dirty_nodes`) plus per-round logical cost.
//
// `--json PATH` additionally emits a machine-readable record so future PRs
// can diff perf trajectories (the committed baseline is BENCH_parallel.json;
// every logical column is exact-match gated by tools/bench_gate.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
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
  std::string mode;  // "sweep" | "dcc_inc" | "dcc_full"
  std::size_t nodes = 0;
  unsigned threads = 0;
  std::size_t tests = 0;
  std::uint64_t bfs_expansions = 0;  // per run, from the registry
  std::uint64_t logical_cost = 0;    // machine-independent scalar per run
  std::uint64_t cache_hits = 0;      // verdicts reused (dcc_inc only)
  std::uint64_t dirty_nodes = 0;     // dirty-frontier marks (dcc_inc only)
  std::size_t rounds = 0;            // deletion rounds (dcc modes)
  double seconds = 0.0;
  double tests_per_sec = 0.0;
  double speedup = 1.0;  // vs the 1-thread row of the same deployment
};

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
  const auto tau =
      static_cast<unsigned>(args.get_int("tau", 4, "confine size"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42, "deployment seed"));
  const auto reps = static_cast<std::size_t>(
      args.get_int("reps", 3, "timed repetitions per configuration (best-of)"));
  const std::string json_path = args.get_string(
      "json", "", "write machine-readable results to this file");
  const auto small_n = static_cast<std::size_t>(
      args.get_int("nodes-small", 400, "small deployment size"));
  const auto large_n = static_cast<std::size_t>(
      args.get_int("nodes-large", 1600, "large deployment size"));
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
      // Logical counters are live in both TGC_OBS builds, so the registry
      // cross-check is unconditional.
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
      s.logical_cost =
          obs::logical_cost(obs::CostVec{delta.counters}) / reps;
      s.seconds = best;
      s.tests_per_sec = static_cast<double>(to_test.size()) / best;
      if (threads == 1) serial_rate = s.tests_per_sec;
      s.speedup = s.tests_per_sec / serial_rate;
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
                   util::Table::num(s.speedup, 2)});
  }
  table.print();
  std::puts("\nVerdicts are bit-identical across all thread counts (checked");
  std::puts("every run). Speedup tracks the physical core count; on a");
  std::puts("single-core host all rows collapse to ~1x.");

  // ------------------- multi-round DCC: incremental vs full recompute
  //
  // Node counts large_n, 4·large_n, 16·large_n (1,600 / 6,400 / 25,600 at
  // the defaults). At the base size both modes run at 1/2/4 threads and the
  // bench asserts identical schedules everywhere; at the larger sizes one
  // thread count keeps the full-recompute leg affordable while the
  // incremental leg shows the asymptotics.
  std::printf("\nMulti-round DCC: incremental engine vs full recompute\n\n");
  for (const std::size_t n : {large_n, 4 * large_n, 16 * large_n}) {
    util::Rng rng(seed);
    const core::Network net = core::prepare_network(
        gen::random_connected_udg(
            n, gen::side_for_average_degree(n, 1.0, degree), 1.0, rng),
        1.0);
    const std::vector<unsigned> dcc_threads =
        n == large_n ? std::vector<unsigned>{1, 2, 4}
                     : std::vector<unsigned>{4};
    std::vector<bool> reference_active;
    for (const bool incremental : {true, false}) {
      // The 16× deployment exists to show the incremental engine's
      // asymptotics; a full-recompute leg there would dominate the whole
      // bench's wall-clock for a counterfactual already measured at 1× and
      // 4×.
      if (!incremental && n == 16 * large_n) continue;
      double serial_rate = 0.0;
      for (const unsigned threads : dcc_threads) {
        core::DccConfig config;
        config.tau = tau;
        config.seed = seed;
        config.num_threads = threads;
        config.incremental = incremental;

        const obs::Metrics before = obs::snapshot();
        const auto start = std::chrono::steady_clock::now();
        const core::ScheduleSummary sum = core::run_dcc(net, config);
        const auto stop = std::chrono::steady_clock::now();
        const obs::Metrics delta = obs::snapshot() - before;

        // Every (mode, thread-count) combination must produce the same
        // schedule — the incremental-rounds contract.
        if (reference_active.empty()) {
          reference_active = sum.result.active;
        } else {
          TGC_CHECK_MSG(sum.result.active == reference_active,
                        "schedule diverged at n=" << n << " threads="
                            << threads << " incremental=" << incremental);
        }

        Sample s;
        s.mode = incremental ? "dcc_inc" : "dcc_full";
        s.nodes = n;
        s.threads = threads;
        s.tests = sum.result.vpt_tests;
        s.bfs_expansions = delta.get(obs::CounterId::kBfsExpansions);
        s.logical_cost = obs::logical_cost(obs::CostVec{delta.counters});
        s.cache_hits = delta.get(obs::CounterId::kVerdictCacheHits);
        s.dirty_nodes = delta.get(obs::CounterId::kDirtyNodes);
        s.rounds = sum.result.rounds;
        s.seconds = std::chrono::duration<double>(stop - start).count();
        s.tests_per_sec = static_cast<double>(s.tests) / s.seconds;
        if (threads == dcc_threads.front()) serial_rate = s.tests_per_sec;
        s.speedup = s.tests_per_sec / serial_rate;
        samples.push_back(s);
        std::fprintf(stderr, "  n %zu %s threads %u: %.3fs (%zu rounds)\n", n,
                     s.mode.c_str(), threads, s.seconds, s.rounds);
      }
    }
  }

  util::Table dcc_table({"nodes", "mode", "threads", "rounds", "vpt tests",
                         "cache hits", "dirty", "bfs", "cost/round",
                         "seconds"});
  std::uint64_t base_inc_work = 0;
  std::uint64_t base_full_work = 0;
  for (const Sample& s : samples) {
    if (s.mode == "sweep") continue;
    const std::uint64_t work =
        static_cast<std::uint64_t>(s.tests) + s.bfs_expansions;
    if (s.nodes == large_n && s.threads == 1) {
      (s.mode == "dcc_inc" ? base_inc_work : base_full_work) = work;
    }
    dcc_table.add_row(
        {std::to_string(s.nodes), s.mode, std::to_string(s.threads),
         std::to_string(s.rounds), std::to_string(s.tests),
         std::to_string(s.cache_hits), std::to_string(s.dirty_nodes),
         std::to_string(s.bfs_expansions),
         std::to_string(s.rounds == 0 ? s.logical_cost
                                      : s.logical_cost / s.rounds),
         util::Table::num(s.seconds, 3)});
  }
  dcc_table.print();
  if (base_inc_work > 0) {
    std::printf("\nincremental work reduction at n=%zu: %.1fx fewer "
                "(vpt_tests + bfs_expansions): %llu -> %llu\n",
                large_n,
                static_cast<double>(base_full_work) /
                    static_cast<double>(base_inc_work),
                static_cast<unsigned long long>(base_full_work),
                static_cast<unsigned long long>(base_inc_work));
  }

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
          << ", \"speedup_vs_1t\": " << s.speedup << "}"
          << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
