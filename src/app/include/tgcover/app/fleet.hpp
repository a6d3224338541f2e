#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tgcover/app/run_bundle.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/manifest.hpp"

/// `tgcover fleet`: one process, many networks. Expands a parameter grid
/// (model × n × degree × τ × loss × seed) into individual scheduling runs,
/// executes them over the shared util::ThreadPool (each run single-threaded
/// on one worker lane), and streams one `run` record per completed run to a
/// single JSONL sink headed by the fleet's RunManifest. `tgcover report`
/// renders the sink into an aggregate dashboard.

namespace tgc::app {

/// Deployment-generation parameters for one fleet cell — the exact knobs
/// `tgcover generate` takes, so a cell can be reproduced individually.
struct GenSpec {
  std::string model = "udg";  ///< udg | quasi | strip
  std::size_t nodes = 400;
  double degree = 25.0;
  std::uint64_t seed = 1;
  double alpha = 0.7;   ///< quasi-UDG certain-link fraction
  double p_link = 0.6;  ///< quasi-UDG band link probability
  double aspect = 4.0;  ///< strip length/width ratio
};

/// Generates one connected deployment — the single code path shared by
/// `tgcover generate` and the fleet runner, so a fleet cell's network is
/// byte-identical to the one `tgcover generate` writes for the same knobs
/// (that is what makes fleet schedule digests comparable to individual
/// `tgcover schedule` runs). Throws CheckError on an unknown model or when
/// no connected instance is found.
gen::Deployment generate_deployment(const GenSpec& spec);

/// Splits a comma list, dropping empty items: the list grammar of fleet
/// axes and of the CLI's `--obs`.
std::vector<std::string> split_commas(const std::string& text);

/// The expanded parameter grid. Axes multiply; scalars apply to every run.
struct FleetSpec {
  std::vector<std::string> models = {"udg"};
  std::vector<std::size_t> nodes = {200};
  std::vector<double> degrees = {25.0};
  std::vector<unsigned> taus = {4};
  std::vector<double> losses = {0.0};  ///< 0 = oracle; > 0 = async lossy
  std::vector<std::uint64_t> seeds = {1};
  double band = 1.0;
  double alpha = 0.7;
  double p_link = 0.6;
  double aspect = 4.0;
  double min_delay = 0.5;  ///< async substrate (loss > 0)
  double max_delay = 1.5;
  double retransmit = 4.0;

  std::size_t total_runs() const {
    return models.size() * nodes.size() * degrees.size() * taus.size() *
           losses.size() * seeds.size();
  }
};

/// Applies one spec key to `spec` — axis keys (models, nodes, degrees,
/// taus, losses, seeds) take comma lists, scalar keys (band, alpha, p-link,
/// aspect, min-delay, max-delay, retransmit) a single value. Shared by the
/// CLI flags and the JSON spec loader so both spellings accept exactly the
/// same grammar. Returns false with a message on unknown keys or unparsable
/// values.
bool apply_fleet_key(FleetSpec& spec, const std::string& key,
                     const std::string& value, std::string& error);

/// Merges a flat JSON spec file ({"nodes":"200,400","taus":"3,4",...} —
/// values may be comma-list strings or bare scalars; keys are the
/// apply_fleet_key keys) into `spec`. Returns false with a message on
/// unreadable files, malformed JSON, unknown keys, or unparsable values.
bool load_fleet_spec(const std::string& path, FleetSpec& spec,
                     std::string& error);

/// The resolved grid as manifest config pairs (axis values re-joined as
/// comma lists) — the fleet's embedded sink header states exactly what ran
/// even when a spec file and override flags were mixed.
std::vector<std::pair<std::string, std::string>> fleet_spec_config(
    const FleetSpec& spec);

/// How campaign progress reaches stderr. kTty rewrites one line in place
/// (\r); kPlain appends a full line per update — the honest form when
/// stderr is a pipe or CI log, where carriage returns render as garbage.
enum class FleetProgress { kOff, kPlain, kTty };

struct FleetOptions {
  FleetSpec spec;
  std::string sink_path = "fleet.jsonl";
  unsigned threads = 0;    ///< pool size (0 = hardware concurrency)
  FleetProgress progress = FleetProgress::kTty;
  /// Resume an interrupted campaign: load the existing sink, skip every grid
  /// cell already recorded with status "ok", and append only the missing or
  /// previously-failed cells. Refuses a sink whose embedded manifest
  /// describes a different grid.
  bool resume = false;
  /// The campaign's bundle (obs.dir empty = none): armed `nodes` / `quality`
  /// stream each cell's run-tagged summary lines into DIR/nodes.jsonl and
  /// DIR/quality.jsonl and add hotspot / SLO columns to the sink rows;
  /// `profile` profiles the whole campaign into DIR/profile.jsonl.
  ObsRequest obs;
};

/// Runs the campaign: expands the grid in deterministic row-major order
/// (model, nodes, degree, tau, loss, seed — last axis fastest), schedules
/// runs over the pool, and streams one record per run to the sink in
/// completion order. Failed runs (TGC_CHECK, bad cell parameters) become
/// `status:"failed"` records and the campaign keeps draining; the exit code
/// is 0 only when every run succeeded and the sink closed cleanly.
int run_fleet(const FleetOptions& opts, const obs::RunManifest& manifest,
              std::ostream& out);

}  // namespace tgc::app
