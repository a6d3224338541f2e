#include "tgcover/app/cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tgcover/app/compare.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/quality_audit.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/app/scale.hpp"
#include "tgcover/core/confine.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/quality.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/obs/flight.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/manifest.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/obs/trace_export.hpp"
#include "tgcover/trace/greenorbs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"
#include "tgcover/version.hpp"

namespace tgc::app {

namespace {

/// Rebuilds the Network wrapper (boundary ring, CB, target) for a loaded
/// deployment — the CLI always re-derives these rather than persisting them,
/// so saved files stay small and tool-agnostic.
core::Network network_of(gen::Deployment dep, double band) {
  return core::prepare_network(std::move(dep), band);
}

// ----------------------------------------------------------- shared flags

/// The repeated per-command flag parsing, hoisted so a help-text or default
/// tweak happens in exactly one place.

/// Confine size τ — the paper's single protocol parameter.
unsigned declare_tau(util::ArgParser& args) {
  return static_cast<unsigned>(args.get_int("tau", 4, "confine size"));
}

/// MIS election seed shared by the scheduling commands.
std::uint64_t declare_mis_seed(util::ArgParser& args) {
  return static_cast<std::uint64_t>(args.get_int("seed", 1, "MIS seed"));
}

/// Periphery band width — prepare_network's only knob.
double declare_band(util::ArgParser& args) {
  return args.get_double("band", 1.0, "periphery band width");
}

/// Worker-count flag with the shared [0, 1024] validation. The help text
/// stays per-command (VPT workers vs campaign workers).
unsigned declare_threads(util::ArgParser& args, std::int64_t def,
                         const char* help) {
  const std::int64_t threads_arg = args.get_int("threads", def, help);
  TGC_CHECK_MSG(threads_arg >= 0 && threads_arg <= 1024,
                "--threads must be in [0, 1024], got " << threads_arg);
  return static_cast<unsigned>(threads_arg);
}

// --------------------------------------------------------------- logging

/// Declares and applies the three diagnostics knobs every subcommand takes:
/// --log-level (runtime threshold), --log-out (sink file), --flight (ring
/// capacity for the crash-context recorder). Applied before args.finish()
/// so later TGC_CHECK failures already have the recorder armed.
void configure_logging(util::ArgParser& args) {
  const std::string level_text = args.get_string(
      "log-level", "info", "log threshold: debug|info|warn|error|off");
  const std::string log_out = args.get_string(
      "log-out", "", "append structured log lines here instead of stderr");
  const std::int64_t flight = args.get_int(
      "flight", 0,
      "retain the last N log lines per thread, dumped on check failure or "
      "crash (0 = off)");
  obs::LogLevel level = obs::LogLevel::kInfo;
  TGC_CHECK_MSG(obs::parse_log_level(level_text, level),
                args.program() << ": bad --log-level '" << level_text
                               << "' (debug|info|warn|error|off)");
  obs::set_log_level(level);
  TGC_CHECK_MSG(
      flight >= 0 &&
          static_cast<std::size_t>(flight) <= obs::kFlightMaxCapacity,
      args.program() << ": --flight must be in [0, "
                     << obs::kFlightMaxCapacity << "], got " << flight);
  obs::set_flight_capacity(static_cast<std::size_t>(flight));
  if (!log_out.empty()) {
    std::string error;
    TGC_CHECK_MSG(obs::set_log_file(log_out, &error), error);
  }
}

// -------------------------------------------------------------- manifest

/// Run timestamp for manifest sidecars: UTC ISO-8601 from the system clock,
/// or the TGC_RUN_TIMESTAMP override so CI can pin it and byte-compare
/// sidecars across reruns. Embedded stream headers never carry it.
std::string run_timestamp() {
  if (const char* env = std::getenv("TGC_RUN_TIMESTAMP")) return env;
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Splits the parser's resolved options into the manifest's semantic config
/// (`semantic` keys — these determine the run's outputs and are embedded in
/// every JSONL stream) and execution detail (everything else: threads, sink
/// paths, log options — sidecar only).
obs::RunManifest make_manifest(const std::string& command,
                               const util::ArgParser& args,
                               std::initializer_list<const char*> semantic) {
  obs::RunManifest m;
  m.command = command;
  m.timestamp = run_timestamp();
  const std::set<std::string> sem(semantic.begin(), semantic.end());
  for (auto& [key, value] : args.resolved()) {
    (sem.count(key) != 0 ? m.config : m.execution).emplace_back(key, value);
  }
  // Execution identity the sidecar should state outright: the *resolved*
  // worker count ("0" means hardware concurrency at parse time — useless to
  // a reader a year later) and the machine's concurrency, so every
  // wall-clock or profile artifact sits next to the parallelism that
  // produced it.
  for (auto& [key, value] : m.execution) {
    if (key != "threads") continue;
    char* end = nullptr;
    const unsigned long requested = std::strtoul(value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      value = std::to_string(util::ThreadPool::resolve_num_threads(
          static_cast<unsigned>(requested)));
    }
  }
  m.execution.emplace_back(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  return m;
}

// --------------------------------------------------------- observability

/// Declares the incremental-rounds escape hatch shared by the scheduling
/// commands. Incremental (cross-round verdict caching with dirty-frontier
/// invalidation, DESIGN.md §11) is the default; `--no-incremental` re-tests
/// every node every round. Schedules are bit-identical either way, so this
/// is execution detail — like `--threads`, never a semantic manifest key.
bool declare_incremental(util::ArgParser& args) {
  return !args.get_flag(
      "no-incremental",
      "disable cross-round VPT verdict caching (re-test every node every "
      "round; schedules are bit-identical — ablation escape hatch)");
}

/// Declares --obs-out / --obs / --rs, the one observability surface of the
/// run commands (DESIGN.md §8). None of them is a semantic manifest key:
/// arming a collector never changes the schedule or the cost stream.
struct ObsFlags {
  ObsRequest request;
  std::string collectors;
};

ObsFlags declare_obs(util::ArgParser& args) {
  ObsFlags f;
  f.request.dir = args.get_string(
      "obs-out", "",
      "write the run's observability bundle into this directory: "
      "manifest.json, metrics.jsonl, cost.jsonl, plus one stream per --obs "
      "collector (render with `tgcover report DIR`)");
  f.collectors = args.get_string(
      "obs", "",
      "comma list of collectors to arm into the bundle: trace, profile, "
      "nodes, quality");
  f.request.rs = args.get_double(
      "rs", 1.0, "sensing radius of the quality probe (gamma = Rc/rs)");
  return f;
}

/// Arms the --obs collectors the command supports. False (after printing
/// the usage error) for an unknown name, a collector the command cannot
/// arm, or collectors without a bundle directory.
bool resolve_obs(ObsFlags& f, std::initializer_list<std::string_view> supported,
                 std::ostream& out) {
  const std::pair<std::string_view, bool ObsRequest::*> kCollectors[] = {
      {"trace", &ObsRequest::trace},
      {"profile", &ObsRequest::profile},
      {"nodes", &ObsRequest::nodes},
      {"quality", &ObsRequest::quality}};
  for (const std::string& name : split_commas(f.collectors)) {
    const auto* known =
        std::find_if(std::begin(kCollectors), std::end(kCollectors),
                     [&](const auto& c) { return c.first == name; });
    if (known == std::end(kCollectors)) {
      out << "error: unknown collector '" << name
          << "' in --obs (trace|profile|nodes|quality)\n";
      return false;
    }
    if (std::find(supported.begin(), supported.end(), name) ==
        supported.end()) {
      out << "error: this command cannot arm the '" << name
          << "' collector (supported:";
      for (const std::string_view s : supported) out << ' ' << s;
      out << ")\n";
      return false;
    }
    f.request.*(known->second) = true;
  }
  if (f.request.dir.empty() && !f.collectors.empty()) {
    out << "error: --obs needs a bundle directory: add --obs-out DIR\n";
    return false;
  }
  return true;
}

/// Positions of a loaded deployment in exporter form.
std::vector<obs::NodePosition> node_positions_of(const gen::Deployment& dep) {
  std::vector<obs::NodePosition> positions;
  positions.reserve(dep.positions.size());
  for (const geom::Point& p : dep.positions) {
    positions.push_back(obs::NodePosition{p.x, p.y});
  }
  return positions;
}

/// The collectors of one run command: armed at construction (before the
/// run), drained and written into one bundle by finish() (after it). With
/// no --obs-out everything stays on the unarmed one-relaxed-load path.
class RunObservers {
 public:
  RunObservers(const ObsRequest& req, const core::Network& net, unsigned tau,
               unsigned threads)
      : req_(req) {
    if (req_.dir.empty()) return;
    obs::set_enabled(true);
    if (req_.trace) {
      if (!obs::kCompiledIn) {
        TGC_LOG(kWarn) << "tracing is compiled out (TGC_OBS=OFF); traces "
                          "will have no events";
      }
      obs::trace_begin();
    }
    if (req_.profile) {
      obs::profile_begin(util::ThreadPool::resolve_num_threads(threads));
    }
    if (req_.nodes) {
      telemetry_ = std::make_unique<obs::NodeTelemetry>(
          net.dep.graph.num_vertices(), obs::EnergyModel{});
      obs::set_node_telemetry(telemetry_.get());
    }
    if (req_.quality) {
      quality_ = make_quality_auditor(net, tau, req_.rs);
      obs::set_quality_auditor(quality_.get());
    }
  }
  ~RunObservers() {
    obs::set_node_telemetry(nullptr);
    obs::set_quality_auditor(nullptr);
  }
  RunObservers(const RunObservers&) = delete;
  RunObservers& operator=(const RunObservers&) = delete;

  /// The per-round collector to hand the scheduler (null when unarmed).
  obs::RoundCollector* collector() {
    return req_.dir.empty() ? nullptr : &collector_;
  }

  /// Drains every collector — the profiler first, so bundle I/O never
  /// pollutes its wall clock — and writes the bundle. False after logging
  /// when a sink failed.
  [[nodiscard]] bool finish(const obs::RunManifest& manifest,
                            const std::vector<bool>& active,
                            const gen::Deployment& dep, std::ostream& out) {
    if (req_.dir.empty()) return true;
    obs::ProfileData profile;
    if (req_.profile) profile = obs::profile_end();
    if (telemetry_ != nullptr) {
      obs::set_node_telemetry(nullptr);
      telemetry_->finalize();
    }
    if (quality_ != nullptr) {
      obs::set_quality_auditor(nullptr);
      quality_->finalize(active);
    }
    std::vector<obs::TraceEvent> events;
    if (req_.trace) events = obs::trace_end();
    collector_.finalize(static_cast<std::uint64_t>(
        std::count(active.begin(), active.end(), true)));

    BundleWriter bundle(req_.dir, manifest);
    collector_.write_jsonl(bundle.open("metrics.jsonl"));
    // cost.jsonl carries only the semantic manifest header and logical
    // counters: byte-identical across hosts, thread counts and log levels.
    collector_.write_cost_jsonl(bundle.open("cost.jsonl"));
    if (req_.trace) {
      obs::write_trace_jsonl(events, bundle.open("trace.jsonl"));
      obs::write_chrome_trace(events, bundle.open("trace.chrome.json"));
    }
    if (req_.profile) {
      obs::write_profile_jsonl(profile, bundle.open("profile.jsonl"));
      obs::write_profile_chrome_trace(profile,
                                      bundle.open("profile.chrome.json"));
    }
    if (telemetry_ != nullptr) {
      obs::write_node_telemetry_jsonl(*telemetry_, node_positions_of(dep),
                                      bundle.open("nodes.jsonl"));
    }
    if (quality_ != nullptr) {
      obs::write_quality_jsonl(*quality_, bundle.open("quality.jsonl"));
    }
    return bundle.close(out);
  }

 private:
  ObsRequest req_;
  obs::RoundCollector collector_;
  std::unique_ptr<obs::NodeTelemetry> telemetry_;
  std::unique_ptr<obs::QualityAuditor> quality_;
};

int cmd_generate(util::ArgParser& args, std::ostream& out) {
  const std::string type =
      args.get_string("type", "udg", "workload type: udg | quasi | strip");
  const auto n =
      static_cast<std::size_t>(args.get_int("nodes", 400, "node count"));
  const double degree = args.get_double("degree", 25.0, "target avg degree");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "random seed"));
  const std::string path =
      args.get_string("out", "network.tgc", "output network file");
  const double alpha =
      args.get_double("alpha", 0.7, "quasi-UDG certain-link fraction");
  const double p_link =
      args.get_double("p-link", 0.6, "quasi-UDG band link probability");
  const double strip_aspect =
      args.get_double("aspect", 4.0, "strip length/width ratio");
  configure_logging(args);
  args.finish();

  if (type != "udg" && type != "quasi" && type != "strip") {
    out << "unknown --type '" << type << "'\n";
    return 2;
  }
  GenSpec spec;
  spec.model = type;
  spec.nodes = n;
  spec.degree = degree;
  spec.seed = seed;
  spec.alpha = alpha;
  spec.p_link = p_link;
  spec.aspect = strip_aspect;
  const gen::Deployment dep = generate_deployment(spec);
  io::save_deployment(dep, path);
  out << "wrote " << path << ": " << dep.graph.num_vertices() << " nodes, "
      << dep.graph.num_edges() << " links, avg degree "
      << dep.graph.average_degree() << "\n";
  return 0;
}

int cmd_schedule(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string out_path =
      args.get_string("out", "schedule.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const std::uint64_t seed = declare_mis_seed(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const bool incremental = declare_incremental(args);
  ObsFlags obs_flags = declare_obs(args);
  configure_logging(args);
  args.finish();
  if (!resolve_obs(obs_flags, {"profile", "quality"}, out)) return 2;
  const obs::RunManifest manifest =
      make_manifest("schedule", args, {"in", "tau", "seed", "band"});

  const core::Network net = network_of(io::load_deployment(in_path), band);
  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  config.num_threads = threads;
  config.incremental = incremental;
  RunObservers observers(obs_flags.request, net, tau, threads);
  config.collector = observers.collector();
  const core::ScheduleSummary s = core::run_dcc(net, config);
  if (!observers.finish(manifest, s.result.active, net.dep, out)) return 1;
  io::save_mask(s.result.active, out_path);
  out << "scheduled tau=" << tau << ": " << s.result.survivors << " of "
      << net.dep.graph.num_vertices() << " nodes awake ("
      << s.result.rounds << " rounds); wrote " << out_path << " (digest "
      << util::hex64(io::mask_digest(s.result.active)) << ")\n";
  return 0;
}

int cmd_verify(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const unsigned tau = declare_tau(args);
  const double band = declare_band(args);
  const std::string cert_path = args.get_string(
      "certificate", "", "write the explicit cycle partition here");
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  TGC_CHECK_MSG(active.size() == net.dep.graph.num_vertices(),
                "schedule size does not match the network");
  const bool ok = core::criterion_holds(net.dep.graph, active, net.cb, tau);
  out << "cycle-partition criterion at tau=" << tau << ": "
      << (ok ? "HOLDS — tau-confine coverage certified"
             : "does not hold") << "\n";

  if (ok && !cert_path.empty()) {
    // The human-checkable witness: cycles of length ≤ τ whose GF(2) sum is
    // the boundary cycle (Definition 2).
    const auto parts = core::find_partition(net.dep.graph, active, net.cb, tau);
    TGC_CHECK(parts.has_value());
    std::ofstream cert(cert_path);
    TGC_CHECK_MSG(cert.good(), "cannot open '" << cert_path << "'");
    cert << "# cycle partition certificate: boundary = XOR of " << parts->size()
         << " cycles, each of length <= " << tau << "\n";
    for (const cycle::Cycle& c : *parts) {
      cert << "cycle";
      for (const graph::VertexId v :
           cycle::cycle_vertices(net.dep.graph, c.edges())) {
        cert << ' ' << v;
      }
      cert << "\n";
    }
    out << "wrote certificate with " << parts->size() << " cycles to "
        << cert_path << "\n";
  }
  return ok ? 0 : 1;
}

int cmd_quality(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const auto cap =
      static_cast<unsigned>(args.get_int("tau-cap", 16, "certificate search cap"));
  const double band = declare_band(args);
  const double gamma =
      args.get_double("gamma", 0.0, "sensing ratio for the Dmax bound (0 = skip)");
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  const core::QualityReport q =
      core::assess_quality(net.dep.graph, active, net.cb, cap);
  out << "cycle space dimension: " << q.cycle_space_dim << "\n";
  out << "void sizes (irreducible cycles): min " << q.min_void << ", max "
      << q.max_void << "\n";
  if (q.certifiable_tau == 0) {
    out << "no confine-coverage certificate up to tau=" << cap << "\n";
  } else {
    out << "smallest certifiable confine size: tau=" << q.certifiable_tau
        << "\n";
    if (gamma > 0.0) {
      out << "worst-case hole diameter bound at gamma=" << gamma << ": "
          << core::paper_hole_diameter_bound(q.certifiable_tau, gamma, 1.0)
          << " * Rc (Proposition 1)\n";
    }
  }
  return 0;
}

int cmd_render(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const std::string out_path =
      args.get_string("out", "network.svg", "output SVG file");
  const double band = declare_band(args);
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  std::vector<io::NodeRole> roles(net.dep.graph.num_vertices());
  for (graph::VertexId v = 0; v < roles.size(); ++v) {
    roles[v] = net.boundary[v] ? io::NodeRole::kBoundary
               : active[v]     ? io::NodeRole::kActive
                               : io::NodeRole::kDeleted;
  }
  io::render_network_svg(net.dep.graph, net.dep.positions, roles, net.cb,
                         out_path);
  out << "wrote " << out_path << "\n";
  return 0;
}

int cmd_trace(util::ArgParser& args, std::ostream& out) {
  trace::GreenOrbsOptions options;
  options.nodes = static_cast<std::size_t>(
      args.get_int("nodes", 296, "sensors in the forest strip"));
  options.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2009, "workload seed"));
  options.trace.epochs = static_cast<std::size_t>(
      args.get_int("epochs", 288, "packet epochs accumulated"));
  const std::string path =
      args.get_string("out", "trace.tgc", "output network file");
  configure_logging(args);
  args.finish();

  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);
  // Persist the thresholded trace graph with the ground-truth positions.
  gen::Deployment dep = net.dep;
  dep.graph = net.graph;
  io::save_deployment(dep, path);
  out << "trace pipeline: " << net.trace.packets << " packets, threshold "
      << net.threshold_dbm << " dBm keeps " << net.graph.num_edges()
      << " links (" << net.boundary_count() << "-node boundary ring); wrote "
      << path << "\n";
  return 0;
}

int cmd_distributed(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string out_path =
      args.get_string("out", "schedule.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const std::uint64_t seed = declare_mis_seed(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const bool async = args.get_flag(
      "async", "run over the asynchronous lossy-link engine (α-synchronized)");
  const double loss =
      args.get_double("loss", 0.0, "per-message loss probability (async)");
  const double min_delay =
      args.get_double("min-delay", 0.5, "minimum link delay (async)");
  const double max_delay =
      args.get_double("max-delay", 1.5, "maximum link delay (async)");
  const auto net_seed = static_cast<std::uint64_t>(
      args.get_int("net-seed", 1, "link delay / loss seed (async)"));
  const double retransmit = args.get_double(
      "retransmit", 4.0, "retransmission interval for unacked messages");
  const bool incremental = declare_incremental(args);
  ObsFlags obs_flags = declare_obs(args);
  configure_logging(args);
  args.finish();
  if (!resolve_obs(obs_flags, {"trace", "profile", "nodes", "quality"}, out)) {
    return 2;
  }
  const obs::RunManifest manifest = make_manifest(
      "distributed", args,
      {"in", "tau", "seed", "band", "async", "loss", "min-delay", "max-delay",
       "net-seed", "retransmit"});

  TGC_CHECK_MSG(async || loss == 0.0, "--loss requires --async");

  const core::Network net = network_of(io::load_deployment(in_path), band);
  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  config.num_threads = threads;
  config.incremental = incremental;
  RunObservers observers(obs_flags.request, net, tau, threads);
  config.collector = observers.collector();
  core::DccDistributedResult result;
  if (async) {
    core::DccAsyncOptions options;
    options.net.min_delay = min_delay;
    options.net.max_delay = max_delay;
    options.net.loss_probability = loss;
    options.net.seed = net_seed;
    options.retransmit_interval = retransmit;
    result = core::dcc_schedule_distributed_async(net.dep.graph, net.internal,
                                                  config, options);
  } else {
    result = core::dcc_schedule_distributed(net.dep.graph, net.internal,
                                            config);
  }
  if (!observers.finish(manifest, result.schedule.active, net.dep, out)) {
    return 1;
  }
  io::save_mask(result.schedule.active, out_path);
  out << "distributed DCC (tau=" << tau
      << "): " << result.schedule.survivors << " nodes awake after "
      << result.schedule.rounds << " deletion rounds; radio cost "
      << result.traffic.messages << " messages / "
      << result.traffic.payload_bytes() / 1024 << " KiB over "
      << result.traffic.rounds << " engine rounds; wrote " << out_path
      << " (digest " << util::hex64(io::mask_digest(result.schedule.active))
      << ")\n";
  if (async) {
    out << "async substrate: sim duration " << result.sim_duration << ", "
        << result.messages_lost << " transmissions lost, "
        << result.retransmissions << " retransmissions\n";
  }
  return 0;
}

int cmd_repair(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "schedule.tgc", "current awake-set mask");
  const std::string failed_path =
      args.get_string("failed", "failed.tgc", "mask of crashed nodes");
  const std::string out_path =
      args.get_string("out", "repaired.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const bool incremental = declare_incremental(args);
  ObsFlags obs_flags = declare_obs(args);
  configure_logging(args);
  args.finish();
  if (!resolve_obs(obs_flags, {"profile", "nodes", "quality"}, out)) return 2;
  const obs::RunManifest manifest = make_manifest(
      "repair", args, {"in", "schedule", "failed", "tau", "band"});

  const core::Network net = network_of(io::load_deployment(in_path), band);
  const auto active = io::load_mask(schedule_path);
  const auto failed = io::load_mask(failed_path);
  TGC_CHECK_MSG(active.size() == net.dep.graph.num_vertices() &&
                    failed.size() == net.dep.graph.num_vertices(),
                "mask sizes do not match the network");
  core::DccConfig config;
  config.tau = tau;
  config.num_threads = threads;
  config.incremental = incremental;
  RunObservers observers(obs_flags.request, net, tau, threads);
  config.collector = observers.collector();
  const core::RepairResult result = core::dcc_repair(
      net.dep.graph, net.internal, active, failed, net.cb, config);
  if (!observers.finish(manifest, result.active, net.dep, out)) return 1;
  io::save_mask(result.active, out_path);
  out << "repair: woke " << result.woken << " sleepers (radius "
      << result.final_radius << "), re-slept " << result.redeleted
      << "; certificate "
      << (result.criterion_restored ? "RESTORED" : "not restorable")
      << "; wrote " << out_path << "\n";
  return result.criterion_restored ? 0 : 1;
}

int cmd_report(util::ArgParser& args, std::ostream& out) {
  const std::string in_path = args.get_string(
      "in", "", "bundle directory or JSONL stream (or give it positionally)");
  const std::string out_path =
      args.get_string("out", "report.html", "output HTML dashboard");
  const std::string title =
      args.get_string("title", "tgcover run report", "report headline");
  configure_logging(args);
  args.finish();
  if (in_path.empty()) {
    out << "error: report needs a bundle: tgcover report DIR|FILE\n";
    return 2;
  }

  const Bundle bundle = load_bundle(in_path);
  if (!bundle.error.empty()) {
    out << "error: " << bundle.error << "\n";
    return 1;
  }
  for (const std::string& note : bundle.notes) TGC_LOG(kWarn) << note;
  if (const std::string refusal = report_refusal(bundle); !refusal.empty()) {
    out << "error: " << refusal << "\n";
    return 1;
  }
  std::optional<TraceStats> trace;
  if (bundle.has("trace_header") || !bundle.trace_events.empty()) {
    trace = analyze_trace(bundle);
  }
  const TraceStats* trace_ptr = trace.has_value() ? &*trace : nullptr;
  out << render_report_text(bundle, trace_ptr);
  if (trace_ptr != nullptr && !trace->violations.empty()) {
    out << "error: refusing to render an inconsistent trace ("
        << trace->violations.size() << " violation(s) in " << in_path
        << ")\n";
    return 1;
  }

  std::ofstream f(out_path, std::ios::binary);
  f << render_report_html(bundle, trace_ptr, title);
  f.flush();
  if (!f.good()) {
    TGC_LOG(kError) << "report sink failed" << obs::kv("path", out_path);
    out << "error: cannot write '" << out_path << "'\n";
    return 1;
  }
  out << "wrote report to " << out_path << "\n";
  if (bundle.skipped > 0) {
    out << "error: " << bundle.skipped << " unreadable line(s) skipped in "
        << in_path << "\n";
    return 1;
  }
  return 0;
}

int cmd_fleet(util::ArgParser& args, std::ostream& out) {
  FleetOptions opts;
  const std::string spec_path = args.get_string(
      "spec", "",
      "flat JSON grid spec file ({\"nodes\":\"200,400\",...}); explicit "
      "flags override its keys");
  // Axis and scalar flags are declared as strings so "not given" is
  // representable — only explicitly-set ones override the spec file.
  const std::pair<const char*, const char*> keys[] = {
      {"models", "comma list of deployment models (udg|quasi|strip)"},
      {"nodes", "comma list of node counts"},
      {"degrees", "comma list of target average degrees"},
      {"taus", "comma list of confine sizes"},
      {"losses",
       "comma list of per-message loss probabilities (0 = oracle scheduler, "
       ">0 = asynchronous lossy engine)"},
      {"seeds", "comma list of seeds (deployment, MIS, and network)"},
      {"band", "periphery band width"},
      {"alpha", "quasi-UDG certain-link fraction"},
      {"p-link", "quasi-UDG band link probability"},
      {"aspect", "strip length/width ratio"},
      {"min-delay", "minimum link delay (lossy cells)"},
      {"max-delay", "maximum link delay (lossy cells)"},
      {"retransmit", "retransmission interval (lossy cells)"},
  };
  std::vector<std::pair<std::string, std::string>> overrides;
  for (const auto& [key, help] : keys) {
    overrides.emplace_back(key, args.get_string(key, "", help));
  }
  opts.sink_path =
      args.get_string("out", "fleet.jsonl", "streaming JSONL summary sink");
  opts.threads = declare_threads(
      args, 0, "campaign workers (0 = hardware concurrency)");
  const bool no_progress = args.get_flag(
      "no-progress", "suppress the live done/failed/ETA line on stderr");
  // A piped stderr (CI log, `2>file`) gets one full line per update instead
  // of \r rewrites, which render as an unreadable mega-line off a terminal.
  opts.progress = no_progress ? FleetProgress::kOff
                  : isatty(fileno(stderr)) != 0 ? FleetProgress::kTty
                                                : FleetProgress::kPlain;
  opts.resume = args.get_flag(
      "resume",
      "skip grid cells already recorded ok in the sink and append only the "
      "missing or failed ones (refuses a sink from a different grid)");
  ObsFlags obs_flags = declare_obs(args);
  configure_logging(args);
  args.finish();
  if (!resolve_obs(obs_flags, {"profile", "nodes", "quality"}, out)) return 2;
  opts.obs = obs_flags.request;

  std::string error;
  if (!spec_path.empty()) {
    TGC_CHECK_MSG(load_fleet_spec(spec_path, opts.spec, error), error);
  }
  for (const auto& [key, value] : overrides) {
    if (value.empty()) continue;
    TGC_CHECK_MSG(apply_fleet_key(opts.spec, key, value, error), error);
  }

  // The manifest's semantic config is the *resolved* grid — when a spec file
  // and flags mix, the embedded header still states exactly what ran.
  obs::RunManifest manifest = make_manifest("fleet", args, {});
  for (auto& kv : fleet_spec_config(opts.spec)) {
    manifest.config.push_back(std::move(kv));
  }

  return run_fleet(opts, manifest, out);
}

int cmd_scale(util::ArgParser& args, std::ostream& out) {
  ScaleOptions opts;
  opts.in_path = args.get_string("in", "network.tgc", "input network file");
  opts.tau = declare_tau(args);
  opts.seed = declare_mis_seed(args);
  opts.band = declare_band(args);
  const std::string ladder = args.get_string(
      "threads", "1,2,4",
      "comma-separated thread ladder, must start at 1 (the serial baseline)");
  opts.repeat = static_cast<unsigned>(args.get_int(
      "repeat", 3, "repeats per rung; wall time is the minimum"));
  opts.json_path = args.get_string("json", "speedup.json",
                                   "speedup-curve JSON sink (empty = none)");
  opts.html_path = args.get_string("out", "scale.html",
                                   "speedup-curve HTML chart (empty = none)");
  opts.incremental = declare_incremental(args);
  configure_logging(args);
  args.finish();
  const obs::RunManifest manifest =
      make_manifest("scale", args, {"in", "tau", "seed", "band"});

  opts.threads.clear();
  for (const std::string& item : split_commas(ladder)) {
    char* stop = nullptr;
    const unsigned long v = std::strtoul(item.c_str(), &stop, 10);
    TGC_CHECK_MSG(stop != nullptr && *stop == '\0' && v >= 1 && v <= 1024,
                  "bad --threads rung '" << item
                                         << "' (want integers in [1, 1024])");
    opts.threads.push_back(static_cast<unsigned>(v));
  }

  const int rc = run_scale(opts, manifest, out);
  if (rc == 0 && !opts.json_path.empty()) {
    const std::string dir =
        std::filesystem::path(opts.json_path).parent_path().string();
    if (!write_manifest_sidecar(manifest, dir.empty() ? "." : dir)) return 1;
  }
  return rc;
}

/// Copies a run (directory or single JSONL file) into the baseline slot,
/// replacing whatever was saved before.
void save_baseline(const std::string& src, const std::string& dir,
                   std::ostream& out) {
  namespace fs = std::filesystem;
  TGC_CHECK_MSG(fs::exists(src), "cannot save missing run '" << src << "'");
  TGC_CHECK_MSG(!fs::exists(dir) || !fs::equivalent(src, dir),
                "refusing to save the baseline onto itself ('" << src
                                                               << "')");
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (fs::is_directory(src)) {
    fs::copy(src, dir,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  } else {
    fs::copy_file(src, fs::path(dir) / fs::path(src).filename(),
                  fs::copy_options::overwrite_existing);
  }
  out << "saved baseline " << src << " -> " << dir << "\n";
}

int cmd_compare(std::vector<std::string> runs, util::ArgParser& args,
                std::ostream& out) {
  const std::string allow = args.get_string(
      "allow-diff", "",
      "comma-separated semantic config keys allowed to differ (e.g. "
      "\"seed\"; \"manifest\" compares runs without provenance)");
  const double threshold = args.get_double(
      "threshold", 5.0, "highlight logical-cost regressions above this %");
  const std::string json_path = args.get_string(
      "json", "compare.json", "machine-readable delta sink (empty = none)");
  const std::string html_path = args.get_string(
      "out", "compare.html", "HTML diff dashboard sink (empty = none)");
  const std::string title = args.get_string(
      "title", "tgcover run comparison", "dashboard headline");
  const bool save = args.get_flag(
      "save",
      "after a clean compare, store the last run as the saved baseline "
      "(with a single run and no --against-last: save without comparing)");
  const bool against_last = args.get_flag(
      "against-last", "compare the given run(s) against the saved baseline");
  const std::string baseline_dir = args.get_string(
      "baseline-dir", ".tgcover/baseline",
      "where --save / --against-last keep the baseline run");
  configure_logging(args);
  args.finish();

  if (against_last) {
    if (!std::filesystem::exists(baseline_dir)) {
      out << "error: no saved baseline at '" << baseline_dir
          << "' — create one with `tgcover compare RUN --save`\n";
      return 1;
    }
    runs.insert(runs.begin(), baseline_dir);
  }
  if (save && runs.size() == 1) {
    // Seeding the workflow: nothing to diff yet, just remember this run.
    save_baseline(runs.front(), baseline_dir, out);
    return 0;
  }

  CompareOptions opts;
  opts.runs = runs;
  opts.allow_diff = split_commas(allow);
  opts.threshold_pct = threshold;
  opts.json_path = json_path;
  opts.html_path = html_path;
  opts.title = title;
  const int rc = compare_runs(opts, out);
  if (save && rc == 0) {
    // Only a clean compare advances the baseline — a regressed run must
    // never silently become the new reference.
    save_baseline(runs.back(), baseline_dir, out);
  }
  return rc;
}

int cmd_version(std::ostream& out) {
  out << kToolName << " " << kToolVersion << "\n"
      << "git:      " << kGitSha << "\n"
      << "build:    " << kBuildType << " (" << kCompiler << ")\n"
      << "flags:    " << kBuildFlags << "\n"
      << "span timers " << (obs::kCompiledIn ? "compiled in" : "compiled out")
      << " (logical counters always on), log floor "
      << obs::log_level_name(
             static_cast<obs::LogLevel>(TGC_LOG_FLOOR))
      << "\n";
  return 0;
}

void print_help(std::ostream& out) {
  out << "tgcover — distributed confine coverage (ICDCS'10 reproduction)\n"
         "usage: tgcover <command> [--key value ...]\n\n"
         "commands:\n"
         "  generate     create a deployment (--type udg|quasi|strip --nodes N"
         " --degree D\n"
         "               --seed S --out FILE)\n"
         "  schedule     run DCC (--in FILE --tau T --out MASK --threads N)\n"
         "  verify       certify a schedule (--in FILE --schedule MASK"
         " --tau T)\n"
         "  quality      void sizes + smallest certifiable tau (--in FILE\n"
         "               [--schedule MASK] [--gamma G])\n"
         "  render       draw as SVG (--in FILE [--schedule MASK] --out SVG)\n"
         "  trace        synthesize a GreenOrbs-style RSSI-trace network\n"
         "  distributed  run the real message-passing scheduler, report cost\n"
         "               (--threads N; --async [--loss P --min-delay D"
         " --max-delay D\n"
         "               --net-seed S --retransmit I] runs over the lossy"
         " asynchronous engine)\n"
         "  repair       wake sleepers around crashed nodes and re-certify\n"
         "  fleet        expand a parameter grid (--models M,.. --nodes N,.."
         " --degrees D,..\n"
         "               --taus T,.. --losses P,.. --seeds S,.. or --spec"
         " grid.json) and run\n"
         "               every cell over the thread pool (--threads N),"
         " streaming one run\n"
         "               record per cell to --out FILE (failed cells become"
         " status:\"failed\"\n"
         "               rows; --resume skips cells already recorded ok)\n"
         "  report       render a bundle DIR or JSONL FILE: prints the round"
         " and cost tables\n"
         "               and the causal trace analysis, writes one HTML"
         " dashboard with a\n"
         "               section per collector present (report DIR|FILE"
         " [--out report.html]\n"
         "               [--title T]); exits 1 on trace invariant violations,"
         " streams\n"
         "               from different runs, or unreadable lines\n"
         "  scale        re-run one config at --threads 1,2,.. (ladder starts"
         " at 1), fail\n"
         "               unless every rung yields the bit-identical schedule"
         " digest, write\n"
         "               the speedup curve to --json FILE and --out HTML;"
         " rungs beyond the\n"
         "               machine's cores make no speedup claim\n"
         "  compare      diff two or more runs by machine-independent logical"
         " cost\n"
         "               (compare RUN1 RUN2 [RUN...] [--allow-diff key,...]"
         " [--threshold PCT]\n"
         "               [--json compare.json] [--out compare.html]; refuses"
         " runs whose\n"
         "               semantic config differs; --save / --against-last /"
         " --baseline-dir\n"
         "               keep a saved baseline)\n"
         "  version      print tool version, git revision, and build flags\n"
         "  help         this text\n\n"
         "schedule / distributed / repair / fleet accept --obs-out DIR: the"
         " run writes an\n"
         "observability bundle there — manifest.json, metrics.jsonl"
         " (per-round telemetry)\n"
         "and cost.jsonl (logical cost, byte-identical across hosts and"
         " thread counts);\n"
         "fleet writes its per-run summaries there. --obs LIST arms more"
         " collectors into\n"
         "it: trace (distributed: causal event trace + Perfetto JSON),"
         " profile (per-worker\n"
         "timelines, phases, memory + Perfetto JSON), nodes (distributed /"
         " repair / fleet:\n"
         "per-node traffic and energy), quality (coverage and holes vs the"
         " Proposition 1\n"
         "bound; --rs R sets the sensing radius). Arming changes no"
         " schedule.\n"
         "every command accepts --log-level debug|info|warn|error|off,"
         " --log-out FILE,\n"
         "and --flight N (keep the last N log lines per thread for crash"
         " dumps).\n"
         "options may be spelled --key value or --key=value.\n";
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out) {
  if (argc < 2) {
    print_help(out);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_help(out);
    return 0;
  }
  if (command == "version" || command == "--version" || command == "-V") {
    return cmd_version(out);
  }
  // Re-pack so ArgParser sees "tgcover <command> --k v ..." — the composed
  // program name is what finish() prints in unknown-option errors, so the
  // message names the subcommand. `report` also takes its input
  // positionally (`tgcover report DIR`); rewrite that to --in.
  const std::string program = "tgcover " + command;
  std::vector<const char*> rest;
  rest.push_back(program.c_str());
  int first = 2;
  if (command == "report" && argc > 2 && argv[2][0] != '-') {
    rest.push_back("--in");
    rest.push_back(argv[2]);
    first = 3;
  }
  // `compare` takes its run directories positionally, before any options.
  std::vector<std::string> compare_paths;
  if (command == "compare") {
    while (first < argc && argv[first][0] != '-') {
      compare_paths.emplace_back(argv[first]);
      ++first;
    }
  }
  for (int i = first; i < argc; ++i) rest.push_back(argv[i]);
  util::ArgParser args(static_cast<int>(rest.size()), rest.data());

  if (command == "generate") return cmd_generate(args, out);
  if (command == "schedule") return cmd_schedule(args, out);
  if (command == "verify") return cmd_verify(args, out);
  if (command == "quality") return cmd_quality(args, out);
  if (command == "render") return cmd_render(args, out);
  if (command == "trace") return cmd_trace(args, out);
  if (command == "distributed") return cmd_distributed(args, out);
  if (command == "repair") return cmd_repair(args, out);
  if (command == "report") return cmd_report(args, out);
  if (command == "fleet") return cmd_fleet(args, out);
  if (command == "scale") return cmd_scale(args, out);
  if (command == "compare") {
    return cmd_compare(std::move(compare_paths), args, out);
  }
  out << "unknown command '" << command << "'\n";
  print_help(out);
  return 2;
}

}  // namespace tgc::app
