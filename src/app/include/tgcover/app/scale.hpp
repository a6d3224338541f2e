#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tgcover/obs/manifest.hpp"

namespace tgc::app {

/// The honest scaling harness (`tgcover scale`): re-runs one semantic config
/// across a thread ladder, hard-fails unless every rung produces the
/// bit-identical schedule digest, and reports measured speedup only for
/// rungs that fit the machine (threads > hardware_concurrency cannot claim a
/// speedup — they are recorded, flagged oversubscribed, and excluded).
struct ScaleOptions {
  std::string in_path = "network.tgc";
  unsigned tau = 4;
  std::uint64_t seed = 1;
  double band = 1.0;
  std::vector<unsigned> threads = {1, 2, 4};  ///< must start at 1
  unsigned repeat = 3;          ///< wall time = min over repeats per rung
  std::string json_path;        ///< speedup-curve JSON sink (empty = none)
  std::string html_path;        ///< speedup-curve HTML sink (empty = none)
};

struct ScaleRung {
  unsigned threads = 0;
  double wall_ms = 0.0;          ///< min over repeats
  std::uint64_t digest = 0;      ///< schedule mask digest
  std::uint64_t logical_cost = 0;
  std::uint64_t rounds = 0;
  std::uint64_t survivors = 0;
  bool oversubscribed = false;   ///< threads > hardware_concurrency
};

/// Runs the ladder. Returns 0 on success, 1 on digest mismatch or sink
/// failure. `out` receives the human summary.
int run_scale(const ScaleOptions& opts, const obs::RunManifest& manifest,
              std::ostream& out);

}  // namespace tgc::app
