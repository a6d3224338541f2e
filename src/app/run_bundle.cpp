#include "tgcover/app/run_bundle.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "tgcover/obs/log.hpp"

namespace tgc::app {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ writer

BundleWriter::BundleWriter(std::string dir, obs::RunManifest manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {
  // A failure here surfaces as the first stream's open error.
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::ostream& BundleWriter::open(const std::string& name, bool append) {
  streams_.push_back(std::make_unique<obs::JsonlWriter>(
      (fs::path(dir_) / name).string(), append));
  obs::JsonlWriter& w = *streams_.back();
  if (fs::path(name).extension() == ".jsonl" && !append && w.ok()) {
    w.stream() << obs::manifest_header_line(manifest_) << "\n";
  }
  return w.stream();
}

bool BundleWriter::close(std::ostream& out) {
  for (const auto& w : streams_) {
    if (!w->close()) {
      TGC_LOG(kError) << "bundle sink failed" << obs::kv("error", w->error());
      return false;
    }
  }
  if (!write_manifest_sidecar(manifest_, dir_)) return false;
  out << "wrote bundle " << dir_ << ": manifest.json";
  for (const auto& w : streams_) {
    out << ' ' << fs::path(w->path()).filename().string();
  }
  out << "\n";
  return true;
}

bool write_manifest_sidecar(const obs::RunManifest& m,
                            const std::string& dir) {
  obs::JsonlWriter w((fs::path(dir) / "manifest.json").string());
  if (w.ok()) w.stream() << obs::manifest_sidecar_line(m) << "\n";
  if (!w.close()) {
    TGC_LOG(kError) << "manifest sidecar failed"
                    << obs::kv("error", w.error());
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ loader

namespace {

/// Every record type a tgcover stream writes. Anything else is a foreign or
/// corrupted line and is skipped with a note.
constexpr std::string_view kKnownTypes[] = {
    // metrics.jsonl / cost.jsonl
    "round", "cost", "cost_total", "summary",
    // trace.jsonl (trace_event records go to Bundle::trace_events)
    "trace_header",
    // profile.jsonl
    "profile_header", "event", "worker_summary", "phase_summary",
    "mem_sample", "memory_summary", "profile_summary",
    // nodes.jsonl
    "node_telemetry_header", "node_pos", "node_round", "link", "node_summary",
    "talker", "telemetry_summary",
    // quality.jsonl
    "quality_header", "quality_round", "bound_violation", "quality_summary",
    // the fleet campaign sink
    "run"};

/// Reverse of obs::trace_kind_name.
bool parse_trace_kind(const std::string& name, obs::TraceKind& kind) {
  for (std::size_t k = 0; k < obs::kNumTraceKinds; ++k) {
    if (name == obs::trace_kind_name(static_cast<obs::TraceKind>(k))) {
      kind = static_cast<obs::TraceKind>(k);
      return true;
    }
  }
  return false;
}

void skip(Bundle& b, const std::string& where, const std::string& what) {
  b.notes.push_back(where + ": " + what);
  ++b.skipped;
}

/// Copies the semantic identity out of a manifest record.
void adopt_config(const obs::JsonRecord& manifest, Bundle& b) {
  b.config.clear();
  if (manifest.has("command")) b.config["command"] = manifest.text("command");
  for (const auto& [key, value] : manifest.fields()) {
    if (key.rfind("cfg_", 0) == 0) b.config[key] = manifest.text(key);
  }
}

std::string first_difference(const obs::JsonRecord& a,
                             const obs::JsonRecord& b) {
  for (const auto& [key, value] : a.fields()) {
    const auto it = b.fields().find(key);
    if (it == b.fields().end() || it->second != value) return key;
  }
  for (const auto& [key, value] : b.fields()) {
    if (!a.has(key)) return key;
  }
  return "?";
}

}  // namespace

const std::vector<obs::JsonRecord>& Bundle::of(std::string_view type) const {
  static const std::vector<obs::JsonRecord> kNone;
  const auto it = records.find(type);
  return it == records.end() ? kNone : it->second;
}

void load_stream(std::istream& in, const std::string& name, Bundle& b) {
  b.files.push_back(name);
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string where = name + ":" + std::to_string(++lineno);
    if (line.empty()) {
      // Producers never emit blank lines: one means an edited or corrupted
      // file, so surface it instead of silently moving on.
      skip(b, where, "skipping blank line");
      continue;
    }
    std::optional<obs::JsonRecord> rec = obs::parse_jsonl_line(line);
    if (!rec.has_value()) {
      // Also catches a truncated final line (a killed run).
      skip(b, where, "skipping malformed record");
      continue;
    }
    const std::string type = rec->text("type");
    if (type == "manifest") {
      if (!b.manifest.has_value()) {
        b.manifest = std::move(*rec);
        adopt_config(*b.manifest, b);
      } else if (b.manifest->fields() != rec->fields() && b.error.empty()) {
        b.error = b.files.front() + " and " + name +
                  " come from different runs (manifests disagree on '" +
                  first_difference(*b.manifest, *rec) +
                  "'); refusing to combine them";
      }
      continue;
    }
    if (type == "trace_event") {
      obs::TraceEvent ev;
      if (!parse_trace_kind(rec->text("kind"), ev.kind)) {
        skip(b, where, "skipping trace event of unknown kind");
        continue;
      }
      ev.seq = rec->u64("seq");
      ev.sim = rec->number("sim");
      ev.node = static_cast<std::uint32_t>(rec->u64("node", obs::kTraceNoNode));
      ev.peer = static_cast<std::uint32_t>(rec->u64("peer", obs::kTraceNoNode));
      ev.type = static_cast<std::uint32_t>(rec->u64("subtype"));
      ev.value = static_cast<std::uint32_t>(rec->u64("value"));
      ev.flow = rec->u64("flow");
      b.trace_events.push_back(ev);
      continue;
    }
    if (std::find(std::begin(kKnownTypes), std::end(kKnownTypes), type) ==
        std::end(kKnownTypes)) {
      skip(b, where, "skipping unknown record type '" + type + "'");
      continue;
    }
    b.records[type].push_back(std::move(*rec));
  }
}

void finish_bundle(Bundle& b) {
  const auto rounds = b.records.find("round");
  if (rounds != b.records.end()) {
    std::vector<obs::JsonRecord> kept;
    for (obs::JsonRecord& rec : rounds->second) {
      if (!kept.empty() && rec.u64("round") <= kept.back().u64("round")) {
        skip(b, b.label,
             "skipping duplicate/out-of-order round id " +
                 std::to_string(rec.u64("round")));
        continue;
      }
      kept.push_back(std::move(rec));
    }
    rounds->second = std::move(kept);
  }
  const auto runs = b.records.find("run");
  if (runs != b.records.end()) {
    // Sink order is completion order (thread-count dependent); run-id order
    // is the deterministic one. stable_sort keeps file order within a run
    // id, so the last record of each group is the one a --resume pass wrote.
    std::vector<obs::JsonRecord>& v = runs->second;
    std::stable_sort(v.begin(), v.end(),
                     [](const obs::JsonRecord& a, const obs::JsonRecord& c) {
                       return a.u64("run") < c.u64("run");
                     });
    std::vector<obs::JsonRecord> unique;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i + 1 < v.size() && v[i].u64("run") == v[i + 1].u64("run")) {
        continue;
      }
      unique.push_back(std::move(v[i]));
    }
    v = std::move(unique);
  }
}

Bundle load_bundle(const std::string& path) {
  Bundle b;
  b.label = path;
  std::error_code ec;
  std::vector<fs::path> streams;
  fs::path dir;
  if (fs::is_directory(path, ec)) {
    dir = path;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".jsonl") {
        streams.push_back(entry.path());
      }
    }
    std::sort(streams.begin(), streams.end());
    if (fs::exists(dir / "metrics.jsonl", ec)) {
      std::erase(streams, dir / "cost.jsonl");
    }
    if (streams.empty()) {
      b.error = "run directory '" + path + "' holds no .jsonl streams";
      return b;
    }
  } else {
    streams.emplace_back(path);
    dir = fs::path(path).parent_path();
    if (dir.empty()) dir = ".";
  }

  for (const fs::path& p : streams) {
    std::ifstream in(p);
    if (!in.good()) {
      b.error = "cannot open '" + p.string() + "'";
      return b;
    }
    load_stream(in, p.string(), b);
    if (!b.error.empty()) return b;
  }
  if (!b.manifest.has_value()) {
    // A bare stream without an embedded header: fall back to the sidecar.
    std::ifstream f(dir / "manifest.json");
    std::string line;
    if (std::getline(f, line)) {
      if (const auto rec = obs::parse_jsonl_line(line)) adopt_config(*rec, b);
    }
  }
  finish_bundle(b);
  return b;
}

}  // namespace tgc::app
