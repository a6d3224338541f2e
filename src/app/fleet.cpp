#include "tgcover/app/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "tgcover/app/quality_audit.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc::app {

gen::Deployment generate_deployment(const GenSpec& spec) {
  util::Rng rng(spec.seed);
  if (spec.model == "udg") {
    return gen::random_connected_udg(
        spec.nodes,
        gen::side_for_average_degree(spec.nodes, 1.0, spec.degree), 1.0, rng);
  }
  if (spec.model == "quasi") {
    const double side =
        gen::side_for_average_degree(spec.nodes, 1.0, spec.degree);
    for (std::uint64_t attempt = 0;; ++attempt) {
      TGC_CHECK_MSG(attempt < 64, "could not generate a connected quasi-UDG");
      util::Rng r = rng.fork(attempt);
      gen::Deployment dep = gen::random_quasi_udg(spec.nodes, side, 1.0,
                                                  spec.alpha, spec.p_link, r);
      if (graph::is_connected(dep.graph)) return dep;
      TGC_LOG(kDebug) << "quasi-UDG attempt disconnected, retrying"
                      << obs::kv("attempt", attempt);
    }
  }
  if (spec.model == "strip") {
    const double area =
        static_cast<double>(spec.nodes) * 3.1415926535 / spec.degree;
    const double width = std::sqrt(area / spec.aspect);
    for (std::uint64_t attempt = 0;; ++attempt) {
      TGC_CHECK_MSG(attempt < 64, "could not generate a connected strip");
      util::Rng r = rng.fork(attempt);
      gen::Deployment dep =
          gen::random_strip_udg(spec.nodes, spec.aspect * width, width, 1.0, r);
      if (graph::is_connected(dep.graph)) return dep;
      TGC_LOG(kDebug) << "strip attempt disconnected, retrying"
                      << obs::kv("attempt", attempt);
    }
  }
  TGC_CHECK_MSG(false, "unknown deployment model '" << spec.model
                                                    << "' (udg|quasi|strip)");
}

// ------------------------------------------------------------ spec parsing

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

namespace {

template <typename T, typename Parse>
bool parse_axis(const std::string& key, const std::string& value,
                Parse&& parse, std::vector<T>& out, std::string& error) {
  std::vector<T> parsed;
  for (const std::string& item : split_commas(value)) {
    T v{};
    if (!parse(item, v)) {
      error = "bad value '" + item + "' for fleet key '" + key + "'";
      return false;
    }
    parsed.push_back(v);
  }
  if (parsed.empty()) {
    error = "fleet key '" + key + "' has no values";
    return false;
  }
  out = std::move(parsed);
  return true;
}

bool parse_scalar_f64(const std::string& key, const std::string& value,
                      double& out, std::string& error) {
  if (util::parse_whole(value, out)) return true;
  error = "bad value '" + value + "' for fleet key '" + key + "'";
  return false;
}

/// A link delay or retransmit interval: the async engine takes only finite
/// positive times, so anything else could only become a failed cell.
bool parse_sim_time(const std::string& key, const std::string& value,
                    double& out, std::string& error) {
  double v = 0.0;
  if (util::parse_whole(value, v) && std::isfinite(v) && v > 0.0) {
    out = v;
    return true;
  }
  error = "bad value '" + value + "' for fleet key '" + key + "'";
  return false;
}

}  // namespace

bool apply_fleet_key(FleetSpec& spec, const std::string& key,
                     const std::string& value, std::string& error) {
  if (key == "models") {
    spec.models = split_commas(value);
    if (spec.models.empty()) {
      error = "fleet key 'models' has no values";
      return false;
    }
    return true;
  }
  if (key == "nodes") {
    return parse_axis<std::size_t>(
        key, value,
        [](const std::string& t, std::size_t& v) {
          return util::parse_whole(t, v) && v > 0;
        },
        spec.nodes, error);
  }
  if (key == "degrees") {
    return parse_axis<double>(
        key, value,
        [](const std::string& t, double& v) {
          return util::parse_whole(t, v) && std::isfinite(v) && v > 0.0;
        },
        spec.degrees, error);
  }
  if (key == "taus") {
    return parse_axis<unsigned>(
        key, value,
        [](const std::string& t, unsigned& v) {
          // τ ≥ 3: a confine cycle has at least three edges (DCC's own
          // TGC_CHECK), so a smaller τ could only become a failed cell.
          return util::parse_whole(t, v) && v >= 3 && v <= 1u << 20;
        },
        spec.taus, error);
  }
  if (key == "losses") {
    return parse_axis<double>(
        key, value,
        [](const std::string& t, double& v) {
          // 0.9 caps the axis: the α-synchronizer recovers from loss, but a
          // near-certain drop rate turns one cell into an unbounded run.
          return util::parse_whole(t, v) && v >= 0.0 && v <= 0.9;
        },
        spec.losses, error);
  }
  if (key == "seeds") {
    return parse_axis<std::uint64_t>(
        key, value, util::parse_whole<std::uint64_t>, spec.seeds, error);
  }
  if (key == "band") return parse_scalar_f64(key, value, spec.band, error);
  if (key == "alpha") return parse_scalar_f64(key, value, spec.alpha, error);
  if (key == "p-link") {
    return parse_scalar_f64(key, value, spec.p_link, error);
  }
  if (key == "aspect") return parse_scalar_f64(key, value, spec.aspect, error);
  if (key == "min-delay") {
    return parse_sim_time(key, value, spec.min_delay, error);
  }
  if (key == "max-delay") {
    return parse_sim_time(key, value, spec.max_delay, error);
  }
  if (key == "retransmit") {
    return parse_sim_time(key, value, spec.retransmit, error);
  }
  error = "unknown fleet spec key '" + key + "'";
  return false;
}

bool load_fleet_spec(const std::string& path, FleetSpec& spec,
                     std::string& error) {
  std::ifstream in(path);
  if (!in.good()) {
    error = "cannot read fleet spec '" + path + "'";
    return false;
  }
  // The spec is one flat JSON object; fold newlines away so a pretty-printed
  // file still parses with the one-line JSONL reader.
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  for (char& c : text) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  const std::optional<obs::JsonRecord> rec = obs::parse_jsonl_line(text);
  if (!rec.has_value()) {
    error = "fleet spec '" + path +
            "' is not a flat JSON object of scalars / comma-list strings";
    return false;
  }
  for (const auto& [key, value] : rec->fields()) {
    if (!apply_fleet_key(spec, key, value, error)) {
      error += " (in " + path + ")";
      return false;
    }
  }
  return true;
}

namespace {

std::string g6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

template <typename T, typename Format>
std::string join_axis(const std::vector<T>& values, Format&& format) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += format(values[i]);
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> fleet_spec_config(
    const FleetSpec& spec) {
  const auto str = [](const std::string& s) { return s; };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const auto num = [](double v) { return g6(v); };
  std::vector<std::pair<std::string, std::string>> config;
  config.emplace_back("models", join_axis(spec.models, str));
  config.emplace_back("nodes", join_axis(spec.nodes, u64));
  config.emplace_back("degrees", join_axis(spec.degrees, num));
  config.emplace_back("taus", join_axis(spec.taus, u64));
  config.emplace_back("losses", join_axis(spec.losses, num));
  config.emplace_back("seeds", join_axis(spec.seeds, u64));
  config.emplace_back("band", g6(spec.band));
  config.emplace_back("alpha", g6(spec.alpha));
  config.emplace_back("p-link", g6(spec.p_link));
  config.emplace_back("aspect", g6(spec.aspect));
  config.emplace_back("min-delay", g6(spec.min_delay));
  config.emplace_back("max-delay", g6(spec.max_delay));
  config.emplace_back("retransmit", g6(spec.retransmit));
  return config;
}

// ------------------------------------------------------------- the runner

namespace {

/// One expanded grid cell, in deterministic row-major order.
struct FleetCell {
  std::size_t run = 0;  ///< stable id: position in the expansion order
  std::string model;
  std::size_t nodes = 0;
  double degree = 0.0;
  unsigned tau = 0;
  double loss = 0.0;
  std::uint64_t seed = 0;
};

std::vector<FleetCell> expand_grid(const FleetSpec& spec) {
  std::vector<FleetCell> cells;
  cells.reserve(spec.total_runs());
  for (const std::string& model : spec.models) {
    for (const std::size_t n : spec.nodes) {
      for (const double degree : spec.degrees) {
        for (const unsigned tau : spec.taus) {
          for (const double loss : spec.losses) {
            for (const std::uint64_t seed : spec.seeds) {
              FleetCell c;
              c.run = cells.size();
              c.model = model;
              c.nodes = n;
              c.degree = degree;
              c.tau = tau;
              c.loss = loss;
              c.seed = seed;
              cells.push_back(std::move(c));
            }
          }
        }
      }
    }
  }
  return cells;
}

std::string f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string f1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Emits the cell coordinates shared by ok and failed records, so every row
/// is self-describing and the report can facet without consulting the
/// manifest.
void append_cell_fields(std::ostringstream& os, const FleetCell& cell,
                        const char* status) {
  os << "{\"type\":\"run\",\"run\":" << cell.run << ",\"status\":\"" << status
     << "\",\"model\":\"" << obs::json_escape(cell.model)
     << "\",\"nodes\":" << cell.nodes << ",\"degree\":" << f6(cell.degree)
     << ",\"tau\":" << cell.tau << ",\"loss\":" << f6(cell.loss)
     << ",\"seed\":" << cell.seed;
}

/// Everything one completed run contributes to its sink record.
struct RunOutcome {
  bool ok = false;
  std::string error;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::uint64_t survivors = 0;
  std::uint64_t rounds = 0;
  std::uint64_t schedule_digest = 0;
  obs::CostVec cost;
  std::uint64_t wall_ns = 0;
  unsigned worker = 0;
  /// Set when the campaign armed `nodes`: the hotspot columns for this
  /// record plus the compact per-run lines for DIR/nodes.jsonl.
  bool has_telemetry = false;
  double max_node_energy = 0.0;
  double traffic_gini = 0.0;
  std::string telemetry_block;
  /// Set when the campaign armed `quality`: the SLO columns for this record
  /// plus the run-tagged quality_summary line for DIR/quality.jsonl.
  bool has_quality = false;
  bool quality_bound_finite = false;
  double min_coverage_fraction = 0.0;
  double max_hole_diameter = 0.0;
  double bound_margin = 0.0;
  std::string quality_block;
};

std::string record_line(const FleetCell& cell, const RunOutcome& r,
                        double band) {
  std::ostringstream os;
  if (!r.ok) {
    append_cell_fields(os, cell, "failed");
    os << ",\"error\":\"" << obs::json_escape(r.error) << "\",\"wall_ms\":"
       << f6(static_cast<double>(r.wall_ns) / 1e6) << ",\"worker\":"
       << r.worker << "}";
    return os.str();
  }
  append_cell_fields(os, cell, "ok");
  os << ",\"band\":" << f6(band) << ",\"graph_nodes\":" << r.graph_nodes
     << ",\"graph_edges\":" << r.graph_edges << ",\"survivors\":"
     << r.survivors << ",\"awake_ratio\":"
     << f6(r.graph_nodes > 0 ? static_cast<double>(r.survivors) /
                                   static_cast<double>(r.graph_nodes)
                             : 0.0)
     << ",\"rounds\":" << r.rounds << ",\"schedule_digest\":\""
     << util::hex64(r.schedule_digest) << '"';
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    os << ",\"" << obs::counter_name(static_cast<obs::CounterId>(i))
       << "\":" << r.cost.units[i];
  }
  os << ",\"logical_cost\":" << obs::logical_cost(r.cost);
  if (r.has_telemetry) {
    // Hotspot columns exist only on telemetry-armed campaigns, so unarmed
    // sinks stay byte-identical to pre-telemetry builds and the fleet gate's
    // column set is unchanged.
    os << ",\"max_node_energy\":" << f6(r.max_node_energy)
       << ",\"traffic_gini\":" << f6(r.traffic_gini);
  }
  if (r.has_quality) {
    // Same contract for the SLO columns: only quality-armed campaigns carry
    // them, and bound_margin appears only under a finite Proposition 1 bound
    // (γ ≤ 2) — constant within a campaign since rs is a campaign scalar.
    os << ",\"min_coverage_fraction\":" << f6(r.min_coverage_fraction)
       << ",\"max_hole_diameter\":" << f6(r.max_hole_diameter);
    if (r.quality_bound_finite) {
      os << ",\"bound_margin\":" << f6(r.bound_margin);
    }
  }
  os << ",\"wall_ms\":" << f6(static_cast<double>(r.wall_ns) / 1e6)
     << ",\"worker\":" << r.worker << "}";
  return os.str();
}

/// Executes one cell on the calling pool worker. Single-threaded by design:
/// the cross-run parallelism lives in the fleet pool, and a single-threaded
/// run means the calling thread's cost-shard delta captures exactly this
/// run's work (obs::local_cost_totals).
RunOutcome execute_cell(const FleetCell& cell, const FleetSpec& spec,
                        const FleetOptions& opts) {
  RunOutcome r;
  const obs::CostVec before = obs::local_cost_totals();
  GenSpec g;
  g.model = cell.model;
  g.nodes = cell.nodes;
  g.degree = cell.degree;
  g.seed = cell.seed;
  g.alpha = spec.alpha;
  g.p_link = spec.p_link;
  g.aspect = spec.aspect;
  const core::Network net =
      core::prepare_network(generate_deployment(g), spec.band);
  r.graph_nodes = net.dep.graph.num_vertices();
  r.graph_edges = net.dep.graph.num_edges();

  // Per-cell collectors bound to this worker by one RunScope: cells run
  // whole on one pool lane with num_threads=1, so concurrent cells never
  // share a collector, and the scope unbinds them even when the cell throws
  // (the auditor captures this cell's Network by reference).
  std::unique_ptr<obs::NodeTelemetry> telemetry;
  if (opts.obs.nodes) {
    telemetry = std::make_unique<obs::NodeTelemetry>(r.graph_nodes);
  }
  std::unique_ptr<obs::QualityAuditor> quality;
  if (opts.obs.quality) {
    quality = make_quality_auditor(net, cell.tau, opts.obs.rs);
  }
  const obs::RunScope scope({nullptr, telemetry.get(), quality.get()});

  core::DccConfig config;
  config.tau = cell.tau;
  config.seed = cell.seed;
  config.num_threads = 1;
  if (cell.loss > 0.0) {
    core::DccAsyncOptions options;
    options.net.min_delay = spec.min_delay;
    options.net.max_delay = spec.max_delay;
    options.net.loss_probability = cell.loss;
    options.net.seed = cell.seed;
    options.retransmit_interval = spec.retransmit;
    const core::DccDistributedResult result =
        core::dcc_schedule_distributed_async(net.dep.graph, net.internal,
                                             config, options);
    r.survivors = result.schedule.survivors;
    r.rounds = result.schedule.rounds;
    r.schedule_digest = io::mask_digest(result.schedule.active);
    if (quality != nullptr) quality->finalize(result.schedule.active);
  } else {
    const core::ScheduleSummary s = core::run_dcc(net, config);
    r.survivors = s.result.survivors;
    r.rounds = s.result.rounds;
    r.schedule_digest = io::mask_digest(s.result.active);
    if (quality != nullptr) quality->finalize(s.result.active);
  }
  if (quality != nullptr) {
    const obs::QualitySummary& qs = quality->summary();
    r.has_quality = true;
    r.quality_bound_finite =
        std::isfinite(quality->config().hole_diameter_bound);
    r.min_coverage_fraction = qs.min_coverage_fraction;
    r.max_hole_diameter = qs.max_hole_diameter;
    r.bound_margin = qs.min_bound_margin;
    std::ostringstream block;
    obs::write_quality_summary_jsonl(*quality, cell.run, block);
    r.quality_block = block.str();
  }
  if (telemetry != nullptr) {
    telemetry->finalize();
    r.has_telemetry = true;
    r.max_node_energy = telemetry->summary().max_node_energy;
    r.traffic_gini = telemetry->summary().traffic_gini;
    std::ostringstream block;
    obs::write_node_summary_jsonl(*telemetry, cell.run, block);
    r.telemetry_block = block.str();
  }
  r.cost = obs::local_cost_totals() - before;
  r.ok = true;
  return r;
}

}  // namespace

namespace {

/// The semantic (cfg_-prefixed) slice of a manifest header record — the part
/// that identifies the grid, independent of timestamps and execution keys.
std::map<std::string, std::string> semantic_config(
    const obs::JsonRecord& rec) {
  std::map<std::string, std::string> cfg;
  for (const auto& [key, value] : rec.fields()) {
    if (key.rfind("cfg_", 0) == 0) cfg.emplace(key, value);
  }
  return cfg;
}

}  // namespace

int run_fleet(const FleetOptions& opts, const obs::RunManifest& manifest,
              std::ostream& out) {
  std::vector<FleetCell> cells = expand_grid(opts.spec);
  TGC_CHECK_MSG(!cells.empty(), "fleet grid is empty");
  TGC_CHECK_MSG(opts.spec.min_delay > 0.0 &&
                    opts.spec.max_delay >= opts.spec.min_delay,
                "fleet delays must satisfy 0 < min-delay <= max-delay");

  // --resume: drop every cell the existing sink already records ok, then
  // append the remainder. Run ids are grid positions, so they stay stable
  // across passes and a re-run cell's fresh record supersedes on load
  // (load_bundle keeps the last record per run id).
  const std::size_t grid_size = cells.size();
  bool append = false;
  std::size_t resumed = 0;
  if (opts.resume) {
    const Bundle prior = load_bundle(opts.sink_path);
    if (prior.error.empty()) {
      if (!prior.manifest.has_value()) {
        out << "error: cannot resume '" << opts.sink_path
            << "': no manifest header to verify the grid against\n";
        return 1;
      }
      const std::optional<obs::JsonRecord> current =
          obs::parse_jsonl_line(obs::manifest_header_line(manifest));
      TGC_CHECK_MSG(current.has_value(), "manifest header line must parse");
      const std::map<std::string, std::string> prior_cfg =
          semantic_config(*prior.manifest);
      const std::map<std::string, std::string> current_cfg =
          semantic_config(*current);
      if (prior_cfg != current_cfg) {
        std::string key = "cfg_ key set";
        for (const auto& [k, v] : current_cfg) {
          const auto it = prior_cfg.find(k);
          if (it == prior_cfg.end() || it->second != v) {
            key = k;
            break;
          }
        }
        out << "error: cannot resume '" << opts.sink_path
            << "': the sink records a different campaign (first mismatch: "
            << key << ")\n";
        return 1;
      }
      // Arming is part of the campaign's shape: resuming an armed grid into
      // an unarmed sink (or vice versa) would mix rows with different column
      // sets and leave the shared quality sink with silent run-id gaps, so
      // refuse the mismatch instead of producing a half-audited artifact.
      bool prior_armed = false;
      for (const obs::JsonRecord& rec : prior.of("run")) {
        if (rec.text("status") == "ok" &&
            rec.has("min_coverage_fraction")) {
          prior_armed = true;
          break;
        }
      }
      if (prior_armed != opts.obs.quality) {
        out << "error: cannot resume '" << opts.sink_path << "': the sink's "
            << (prior_armed ? "ok records carry quality columns but this "
                              "pass runs without --obs quality"
                            : "ok records have no quality columns but this "
                              "pass arms --obs quality")
            << " — rerun with matching quality arming or a fresh sink\n";
        return 1;
      }
      std::set<std::size_t> ok_runs;
      for (const obs::JsonRecord& rec : prior.of("run")) {
        if (rec.text("status") == "ok") {
          ok_runs.insert(static_cast<std::size_t>(rec.u64("run")));
        }
      }
      cells.erase(std::remove_if(cells.begin(), cells.end(),
                                 [&](const FleetCell& c) {
                                   return ok_runs.count(c.run) != 0;
                                 }),
                  cells.end());
      resumed = grid_size - cells.size();
      append = true;
      if (cells.empty()) {
        // Every cell is already recorded ok: say so plainly and stop before
        // the progress machinery — a 0-cell campaign has no ETA to print
        // and nothing to append.
        out << "fleet: nothing to do — all " << grid_size << " cells in '"
            << opts.sink_path << "' are already ok\n";
        return 0;
      }
      out << "fleet: resuming '" << opts.sink_path << "' — " << resumed
          << " of " << grid_size << " cells already ok, " << cells.size()
          << " to run\n";
    }
    // An absent or unreadable sink means there is nothing to resume; fall
    // through to a fresh campaign that creates it.
  }

  // The logical-cost counters are the payload of every record; campaigns
  // always run metered.
  obs::set_enabled(true);

  obs::JsonlWriter sink(opts.sink_path, append);
  if (!sink.ok()) {
    TGC_LOG(kError) << "fleet sink failed" << obs::kv("error", sink.error());
    out << "error: cannot write '" << opts.sink_path << "'\n";
    return 1;
  }
  // A resumed sink keeps its original manifest header; the grids were just
  // verified identical.
  if (!append) sink.stream() << obs::manifest_header_line(manifest) << "\n";

  // The bundle's per-run summary streams ride the same append / header
  // discipline as the main sink; the profile covers this pass alone.
  std::optional<BundleWriter> bundle;
  std::ostream* telemetry_sink = nullptr;
  std::ostream* quality_sink = nullptr;
  if (!opts.obs.dir.empty()) {
    bundle.emplace(opts.obs.dir, manifest);
    if (opts.obs.nodes) telemetry_sink = &bundle->open("nodes.jsonl", append);
    if (opts.obs.quality) quality_sink = &bundle->open("quality.jsonl", append);
  }
  if (opts.obs.profile) {
    obs::profile_begin(util::ThreadPool::resolve_num_threads(opts.threads));
  }

  std::mutex mu;  // sink stream + progress counters + worker tally
  std::size_t done = 0;
  std::size_t failed = 0;
  // Runs and busy time per worker lane, indexed by worker; a lane appears
  // once it has run a cell.
  struct WorkerTally {
    std::uint64_t runs = 0;
    std::uint64_t busy_ns = 0;
  };
  std::vector<WorkerTally> tally;
  const std::uint64_t t0 = obs::now_ns();

  util::ThreadPool pool(opts.threads);
  pool.parallel_for_chunked(
      0, cells.size(), 1, [&](std::size_t i, unsigned worker) {
        const FleetCell& cell = cells[i];
        RunOutcome r;
        const std::uint64_t start = obs::now_ns();
        try {
          r = execute_cell(cell, opts.spec, opts);
        } catch (const std::exception& e) {
          r.ok = false;
          r.error = e.what();
        }
        r.wall_ns = obs::now_ns() - start;
        r.worker = worker;
        const std::string line = record_line(cell, r, opts.spec.band);

        std::lock_guard<std::mutex> lock(mu);
        if (tally.size() <= worker) tally.resize(worker + 1);
        tally[worker].runs += 1;
        tally[worker].busy_ns += r.wall_ns;
        sink.stream() << line << "\n";
        if (telemetry_sink != nullptr) *telemetry_sink << r.telemetry_block;
        if (quality_sink != nullptr) *quality_sink << r.quality_block;
        ++done;
        if (!r.ok) {
          ++failed;
          TGC_LOG(kWarn) << "fleet run failed" << obs::kv("run", cell.run)
                         << obs::kv("error", r.error);
        }
        if (opts.progress != FleetProgress::kOff) {
          const double elapsed =
              static_cast<double>(obs::now_ns() - t0) / 1e9;
          const double eta =
              elapsed / static_cast<double>(done) *
              static_cast<double>(cells.size() - done);
          if (opts.progress == FleetProgress::kTty) {
            std::cerr << "\rfleet: " << done << "/" << cells.size()
                      << " done";
            if (failed > 0) std::cerr << ", " << failed << " failed";
            std::cerr << ", ETA " << f1(eta) << "s   " << std::flush;
          } else {
            // Piped stderr (CI logs): one full line per update — a \r
            // rewrite renders as one unreadable mega-line there.
            std::cerr << "fleet: " << done << "/" << cells.size() << " done";
            if (failed > 0) std::cerr << ", " << failed << " failed";
            std::cerr << ", ETA " << f1(eta) << "s\n";
          }
        }
      });
  if (opts.progress == FleetProgress::kTty) std::cerr << "\n";
  if (opts.obs.profile) {
    const obs::ProfileData profile = obs::profile_end();
    obs::write_profile_jsonl(profile, bundle->open("profile.jsonl"));
    obs::write_profile_chrome_trace(profile,
                                    bundle->open("profile.chrome.json"));
  }

  bool sink_ok = sink.close();
  if (!sink_ok) {
    TGC_LOG(kError) << "fleet sink failed" << obs::kv("error", sink.error());
  }

  if (opts.progress != FleetProgress::kOff) {
    // Worker utilization lands on stderr next to the progress line: skew
    // (one lane absorbing the big-n cells) is an operator concern, not part
    // of the deterministic artifact.
    for (std::size_t w = 0; w < tally.size(); ++w) {
      std::cerr << "worker " << w << ": " << tally[w].runs << " runs, "
                << f1(static_cast<double>(tally[w].busy_ns) / 1e9)
                << "s busy\n";
    }
  }

  out << "fleet: " << cells.size() << " runs";
  if (resumed > 0) out << " (+" << resumed << " resumed)";
  if (failed > 0) out << " (" << failed << " FAILED)";
  out << " over " << pool.num_workers() << " workers; wrote "
      << opts.sink_path << "\n";
  if (!sink_ok) {
    out << "error: sink '" << opts.sink_path << "' failed: " << sink.error()
        << "\n";
    return 1;
  }
  if (bundle.has_value() && !bundle->close(out)) return 1;
  return failed == 0 ? 0 : 1;
}

}  // namespace tgc::app
