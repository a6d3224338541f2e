#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tgc::obs {

/// Run provenance. Every artifact-producing command builds one of these and
/// (a) writes it as the `manifest.json` sidecar of its bundle directory and
/// (b) embeds the *semantic* subset as the first line of each JSONL stream,
/// so an artifact can always explain which build, command, and config
/// produced it.
///
/// `config` holds the options that determine the run's outputs (input file,
/// tau, seeds, loss model, ...); `execution` holds the ones that provably
/// do not (--threads, sink paths, log options). Only `config` is embedded
/// in the streams — that is what keeps traces byte-identical across
/// --threads and log levels, and it is the set `tgcover report` compares
/// when refusing to fuse artifacts from different runs.
///
/// `timestamp` is caller-provided (the manifest never reads a clock or the
/// hostname itself — determinism stays in the caller's hands) and appears
/// only in the sidecar, never in the embedded line.
struct RunManifest {
  std::string command;    ///< subcommand name ("distributed", ...)
  std::string timestamp;  ///< e.g. UTC ISO-8601; may be empty
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, std::string>> execution;
};

/// Backslash-escapes `"` and `\` and replaces control characters so the
/// value is safe inside a JSON string (shared by the manifest writers and
/// the flight-recorder dump).
std::string json_escape(std::string_view text);

/// The embedded stream header: one flat JSON line of build identity +
/// command + `cfg_`-prefixed semantic config. Flat (no nested objects) so
/// obs::parse_jsonl_line can read it back. Deterministic for a fixed build
/// and config — no timestamp, no execution options.
std::string manifest_header_line(const RunManifest& m);

/// The sidecar form: the header-line fields plus timestamp and
/// `exec_`-prefixed execution options, still one flat JSON line.
std::string manifest_sidecar_line(const RunManifest& m);

}  // namespace tgc::obs
