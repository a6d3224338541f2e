// Seeded mutation test of every input loader: the bundle loader behind
// `tgcover report` (one bundle holding every stream type, plus a fleet
// sink), io::load_deployment, and io::load_mask. Each mutant — a truncated
// file, a flipped byte, a dropped or duplicated header line, a value of the
// wrong type — must load, be skipped and counted, or fail with a named
// error. No exception other than CheckError may escape (and under
// TGC_SANITIZE=address, no memory error either).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/app/trace_analysis.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::app {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20261017;
constexpr int kMutants = 2000;

int run(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  return run_cli(static_cast<int>(full.size()), full.data(), out);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// A header line: the embedded manifest, a collector's *_header record, or
/// one of the fixed keyword lines heading a deployment / mask file.
bool is_header(const std::string& line) {
  for (const char* marker :
       {"\"manifest\"", "_header\"", "tgcover-network", "tgcover-mask",
        "nodes ", "rc ", "area ", "edges "}) {
    if (line.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// One seeded mutation of `text`; `op` names it for failure messages.
std::string mutate(const std::string& text, util::Rng& rng, std::string& op) {
  static const char* const kValues[] = {
      "\"x\"", "-1", "1e999", "18446744073709551615", "99999999999", "nan",
      "abc", "4294967296", "\"\"", "0"};
  std::vector<std::string> lines = split_lines(text);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  switch (rng.next_below(5)) {
    case 0:
      op = "truncate";
      return text.substr(0, pick(text.size() + 1));
    case 1: {
      op = "flip byte";
      std::string out = text;
      if (!out.empty()) {
        out[pick(out.size())] ^= static_cast<char>(1 + rng.next_below(255));
      }
      return out;
    }
    case 2:
    case 3: {
      std::vector<std::size_t> headers;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (is_header(lines[i])) headers.push_back(i);
      }
      if (headers.empty()) break;
      const std::size_t h = headers[pick(headers.size())];
      if (lines.empty()) break;
      if (rng.next_below(2) == 0) {
        op = "drop header";
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(h));
      } else {
        op = "duplicate header";
        const std::string copy = lines[h];
        lines.insert(lines.begin() +
                         static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                     copy);
      }
      return join_lines(lines);
    }
    default:
      break;
  }
  // Swap the type of one value: the token after a ':' (JSONL) or after a
  // space (the whitespace-separated network and mask formats).
  op = "swap value type";
  if (lines.empty()) return text;
  std::string& line = lines[pick(lines.size())];
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    if (line[i] == ':' || line[i] == ' ') starts.push_back(i + 1);
  }
  if (starts.empty()) return join_lines(lines);
  const std::size_t at = starts[pick(starts.size())];
  std::size_t end = at;
  if (end < line.size() && line[end] == '"') {
    end = line.find('"', end + 1);
    end = end == std::string::npos ? line.size() : end + 1;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}' &&
           line[end] != ' ') {
      ++end;
    }
  }
  line.replace(at, end - at, kValues[pick(std::size(kValues))]);
  return join_lines(lines);
}

/// Where a mutant ended up; every mutant lands in exactly one.
struct Outcomes {
  int clean = 0;    ///< loaded and rendered with nothing skipped
  int skipped = 0;  ///< loaded and rendered, bad lines skipped and counted
  int named = 0;    ///< a named error: loader, refusal, trace violation
  int check = 0;    ///< CheckError (the deployment / mask loaders)
};

/// The report pipeline over in-memory streams, exactly as `tgcover report`
/// runs it minus the file I/O.
void render(const std::vector<std::pair<std::string, std::string>>& streams,
            Outcomes& outcomes) {
  Bundle b;
  b.label = "mutant";
  for (const auto& [name, text] : streams) {
    std::istringstream in(text);
    load_stream(in, name, b);
  }
  finish_bundle(b);
  if (!b.error.empty() || !report_refusal(b).empty()) {
    ++outcomes.named;
    return;
  }
  std::optional<TraceStats> trace;
  if (b.has("trace_header") || !b.trace_events.empty()) {
    trace = analyze_trace(b);
  }
  const TraceStats* t = trace.has_value() ? &*trace : nullptr;
  render_report_text(b, t);
  if (t != nullptr && !t->violations.empty()) {
    ++outcomes.named;
    return;
  }
  EXPECT_FALSE(render_report_html(b, t, "mutant").empty());
  ++(b.skipped > 0 ? outcomes.skipped : outcomes.clean);
}

class LoaderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "tgc_loader_fuzz_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(LoaderFuzz, EveryMutantLoadsSkipsOrFailsByName) {
  // The corpus: a 14-node traced distributed run with every collector
  // armed, a one-cell lossy fleet campaign, the network, and the mask.
  const std::string net = (dir_ / "net.tgc").string();
  const std::string mask = (dir_ / "mask.tgc").string();
  const fs::path bundle = dir_ / "run";
  ASSERT_EQ(run({"generate", "--nodes", "14", "--degree", "8", "--seed", "3",
                 "--out", net.c_str()}),
            0);
  ASSERT_EQ(run({"distributed", "--in", net.c_str(), "--tau", "4", "--out",
                 mask.c_str(), "--obs-out", bundle.string().c_str(), "--obs",
                 "trace,profile,nodes,quality"}),
            0);
  const std::string fleet = (dir_ / "fleet.jsonl").string();
  ASSERT_EQ(run({"fleet", "--nodes", "14", "--degrees", "8", "--taus", "4",
                 "--losses", "0.1", "--seeds", "1", "--threads", "1",
                 "--no-progress", "--out", fleet.c_str()}),
            0);

  std::vector<std::pair<std::string, std::string>> streams;
  for (const char* name : {"metrics.jsonl", "cost.jsonl", "trace.jsonl",
                           "profile.jsonl", "nodes.jsonl", "quality.jsonl"}) {
    streams.emplace_back(name, read_file(bundle / name));
  }
  streams.emplace_back("fleet.jsonl", read_file(fleet));
  const std::string deployment = read_file(net);
  const std::string mask_text = read_file(mask);

  // The unmutated corpus renders clean.
  Outcomes baseline;
  for (const auto& stream : streams) render({stream}, baseline);
  ASSERT_EQ(baseline.clean, static_cast<int>(streams.size()));

  util::Rng rng(kSeed);
  Outcomes outcomes;
  int through_cli = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t target = rng.next_below(streams.size() + 2);
    std::string op;
    std::string name;
    std::string mutant;
    try {
      if (target == streams.size() || target == streams.size() + 1) {
        const bool is_mask = target == streams.size() + 1;
        name = is_mask ? "mask" : "deployment";
        mutant = mutate(is_mask ? mask_text : deployment, rng, op);
        std::istringstream in(mutant);
        if (is_mask) {
          io::load_mask(in);
        } else {
          io::load_deployment(in);
        }
        ++outcomes.clean;
        continue;
      }
      name = streams[target].first;
      mutant = mutate(streams[target].second, rng, op);
      // A run stream is loaded next to the bundle's metrics stream, so a
      // damaged manifest meets an intact one.
      std::vector<std::pair<std::string, std::string>> bundle_streams;
      if (name != "metrics.jsonl" && name != "fleet.jsonl") {
        bundle_streams.push_back(streams[0]);
      }
      bundle_streams.emplace_back(name, mutant);
      render(bundle_streams, outcomes);

      if (i % 100 == 0) {
        // The CLI agrees: exit 0 for a clean render, 1 for anything else.
        const std::string path = (dir_ / ("mutant-" + name)).string();
        std::ofstream(path, std::ios::binary) << mutant;
        const int rc = run({"report", path.c_str(), "--out",
                            (dir_ / "mutant.html").string().c_str()});
        EXPECT_TRUE(rc == 0 || rc == 1) << name << " " << op << " rc " << rc;
        ++through_cli;
      }
    } catch (const CheckError&) {
      ++outcomes.check;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " of " << name << " (" << op
                    << ") escaped with " << e.what() << "\n"
                    << mutant.substr(0, 400);
    }
  }
  EXPECT_EQ(outcomes.clean + outcomes.skipped + outcomes.named +
                outcomes.check,
            kMutants);
  // The mutations reach every outcome.
  EXPECT_GT(outcomes.clean, 0);
  EXPECT_GT(outcomes.skipped, 0);
  EXPECT_GT(outcomes.named, 0);
  EXPECT_GT(outcomes.check, 0);
  EXPECT_GT(through_cli, 0);
}

}  // namespace
}  // namespace tgc::app
