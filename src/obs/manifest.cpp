#include "tgcover/obs/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "tgcover/version.hpp"

namespace tgc::obs {

namespace {

void write_kv(std::ostream& out, std::string_view key, std::string_view value) {
  out << ",\"" << key << "\":\"" << json_escape(value) << "\"";
}

/// Key-sorted copy: manifests are byte-deterministic regardless of the
/// order the CLI declared its options in.
std::vector<std::pair<std::string, std::string>> sorted(
    std::vector<std::pair<std::string, std::string>> kvs) {
  std::sort(kvs.begin(), kvs.end());
  return kvs;
}

void write_identity(std::ostream& out, const RunManifest& m) {
  out << "{\"type\":\"manifest\",\"manifest_version\":1,\"tool\":\""
      << kToolName << "\"";
  write_kv(out, "tool_version", kToolVersion);
  write_kv(out, "git_sha", kGitSha);
  write_kv(out, "build_type", kBuildType);
  write_kv(out, "compiler", kCompiler);
  write_kv(out, "build_flags", kBuildFlags);
  write_kv(out, "command", m.command);
  for (const auto& [key, value] : sorted(m.config)) {
    write_kv(out, "cfg_" + key, value);
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string manifest_header_line(const RunManifest& m) {
  std::ostringstream out;
  write_identity(out, m);
  out << "}";
  return out.str();
}

std::string manifest_sidecar_line(const RunManifest& m) {
  std::ostringstream out;
  write_identity(out, m);
  write_kv(out, "timestamp", m.timestamp);
  for (const auto& [key, value] : sorted(m.execution)) {
    write_kv(out, "exec_" + key, value);
  }
  out << "}";
  return out.str();
}

}  // namespace tgc::obs
