#pragma once

#include <cstddef>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/manifest.hpp"
#include "tgcover/obs/trace.hpp"

/// The run bundle: the one on-disk observability surface (DESIGN.md §8).
/// `--obs-out DIR` makes a run write a directory holding `manifest.json`
/// plus one stream per collector; every stream is JSONL whose records carry
/// a string `type` field, headed by the run's embedded manifest line.
/// `tgcover report` and `tools/bench_gate.py` both read bundles by this
/// record-type grouping.

namespace tgc::app {

/// What a run command's `--obs-out DIR --obs LIST --rs R` asked for: the
/// bundle directory (empty = none) and the extra collectors to arm.
struct ObsRequest {
  std::string dir;
  bool trace = false;    ///< trace.jsonl + trace.chrome.json
  bool profile = false;  ///< profile.jsonl + profile.chrome.json
  bool nodes = false;    ///< nodes.jsonl
  bool quality = false;  ///< quality.jsonl
  double rs = 1.0;       ///< sensing radius of the quality probe
};

/// Writes one bundle directory. Owns the directory, its single
/// `manifest.json` sidecar, the embedded manifest header of every `.jsonl`
/// stream, and the failure report when any sink fails.
class BundleWriter {
 public:
  /// Creates `dir` (and parents).
  BundleWriter(std::string dir, obs::RunManifest manifest);

  /// Opens DIR/name for writing. `.jsonl` streams start with the embedded
  /// manifest line; other files (the Chrome trace exports) are raw.
  /// `append` extends an existing stream without a second header (fleet
  /// --resume). The stream stays valid until close().
  std::ostream& open(const std::string& name, bool append = false);

  /// Closes every stream and writes `manifest.json`. Returns false after
  /// logging the first failure; the caller turns that into exit code 1.
  [[nodiscard]] bool close(std::ostream& out);

 private:
  std::string dir_;
  obs::RunManifest manifest_;
  std::vector<std::unique_ptr<obs::JsonlWriter>> streams_;
};

/// A loaded bundle: every record of every stream, grouped by its `type`
/// field in file order (trace events in their own compact vector). The
/// embedded manifest lines are folded into `manifest` (they must agree —
/// streams from different runs are an error).
struct Bundle {
  std::string label;               ///< the path as the user gave it
  std::vector<std::string> files;  ///< streams loaded, in load order
  std::optional<obs::JsonRecord> manifest;
  /// Semantic identity: "command" plus every cfg_ key, from the embedded
  /// manifest (preferred) or the directory's manifest.json. Execution detail
  /// never appears, so runs that differ only in threads compare equal.
  std::map<std::string, std::string> config;
  std::map<std::string, std::vector<obs::JsonRecord>, std::less<>> records;
  /// The trace_event records, kept compact (a trace runs to millions of
  /// events): `flow` is the record's flow field, `wall_ns` stays 0.
  std::vector<obs::TraceEvent> trace_events;
  /// Lines that were blank, malformed, out of order, or had no type — each
  /// with one human-readable note.
  std::size_t skipped = 0;
  std::vector<std::string> notes;
  std::string error;  ///< non-empty when the bundle is unusable

  /// Records of one type (empty when absent).
  const std::vector<obs::JsonRecord>& of(std::string_view type) const;
  bool has(std::string_view type) const { return !of(type).empty(); }
};

/// Loads a bundle directory (every `*.jsonl` in name order; `cost.jsonl` is
/// skipped when `metrics.jsonl`, its superset, is present) or one JSONL
/// file. Unreadable paths, empty directories, and disagreeing manifests land
/// in Bundle::error, never a crash.
Bundle load_bundle(const std::string& path);

/// Appends one stream's records to `bundle`; `name` labels notes and errors.
void load_stream(std::istream& in, const std::string& name, Bundle& bundle);

/// Post-load ordering rules: `round` ids must increase (later duplicates
/// are skipped), and fleet `run` rows are sorted by run id keeping the last
/// record per id (a --resume pass supersedes a failed cell). load_bundle
/// applies it; callers of load_stream call it once after the last stream.
void finish_bundle(Bundle& bundle);

}  // namespace tgc::app
