// End-to-end tests of run provenance and the `tgcover report` dashboard:
// the bundle's manifest sidecar + embedded stream headers, report rendering
// and its refusal paths (inconsistent trace, mismatched runs), byte-
// determinism of both the artifacts and the rendered HTML, and the
// version/help/diagnostic surfaces of the CLI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::app {
namespace {

namespace fs = std::filesystem;

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string first_line(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_report_test_") + info->name());
    fs::create_directories(dir_);
    // Pin the sidecar timestamp so manifests are byte-comparable, the same
    // way the CI determinism job does.
    setenv("TGC_RUN_TIMESTAMP", "2026-08-06T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
    sched_ = (dir_ / "sched.tgc").string();
    bundle_ = (dir_ / "run").string();
    metrics_ = (dir_ / "run" / "metrics.jsonl").string();
    trace_ = (dir_ / "run" / "trace.jsonl").string();
  }
  void TearDown() override {
    unsetenv("TGC_RUN_TIMESTAMP");
    obs::reset_logging();
    obs::set_flight_capacity(0);
    fs::remove_all(dir_);
  }

  /// generate → distributed --async --loss into a traced bundle: the run
  /// every report test renders. Extra flags (e.g. log options) are appended.
  void make_run(std::initializer_list<const char*> extra = {}) {
    std::string out;
    // Small enough that the traced bundle (JSONL + Chrome export) stays in
    // the tens of megabytes.
    ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "120", "--degree",
                   "16", "--seed", "7", "--out", net_.c_str()},
                  &out),
              0)
        << out;
    std::vector<const char*> argv{
        "distributed", "--in",         net_.c_str(),   "--out",
        sched_.c_str(), "--tau",       "4",            "--seed",
        "3",            "--async",     "--loss",       "0.1",
        "--retransmit", "3",           "--obs-out",    bundle_.c_str(),
        "--obs",        "trace"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::vector<const char*> full{"tgcover"};
    full.insert(full.end(), argv.begin(), argv.end());
    std::ostringstream os;
    ASSERT_EQ(run_cli(static_cast<int>(full.size()), full.data(), os), 0)
        << os.str();
  }

  fs::path dir_;
  std::string net_, sched_, bundle_, metrics_, trace_;
};

TEST_F(ReportFixture, ReportFusesARealRunAndIsByteDeterministic) {
  make_run();
  const std::string html_path = (dir_ / "report.html").string();
  std::string out;
  ASSERT_EQ(run({"report", bundle_.c_str(), "--out", html_path.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("trace OK"), std::string::npos);
  // Each loss event carries the words it lost, so a lossy run loses some.
  EXPECT_NE(out.find(" words) lost on the air"), std::string::npos) << out;
  EXPECT_EQ(out.find("(0 words) lost on the air"), std::string::npos) << out;

  const std::string html = read_file(html_path);
  // All four dashboard sections render from a real --async --loss run.
  for (const char* heading :
       {"Round timeline", "Coverage schedule", "Radio traffic",
        "Causal critical path", "Run provenance", "Per-round data"}) {
    EXPECT_NE(html.find(heading), std::string::npos) << heading;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("class=\"legend\""), std::string::npos);
  EXPECT_NE(html.find("retransmissions"), std::string::npos);

  // Self-contained: no external scripts, stylesheets, or images.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);

  // Rendering is a pure function of the inputs: a second render from the
  // same artifacts is byte-identical.
  const std::string html2_path = (dir_ / "report2.html").string();
  ASSERT_EQ(run({"report", bundle_.c_str(), "--out", html2_path.c_str()},
                &out),
            0);
  EXPECT_EQ(html, read_file(html2_path));
}

TEST_F(ReportFixture, ReportWithoutTraceStillRendersRoundSections) {
  make_run();
  const std::string html_path = (dir_ / "report.html").string();
  std::string out;
  // A single stream of the bundle renders on its own.
  ASSERT_EQ(
      run({"report", metrics_.c_str(), "--out", html_path.c_str()}, &out), 0)
      << out;
  EXPECT_EQ(out.find("trace OK"), std::string::npos);
  EXPECT_NE(out.find("summary:"), std::string::npos);
  const std::string html = read_file(html_path);
  EXPECT_NE(html.find("Round timeline"), std::string::npos);
  EXPECT_EQ(html.find("Causal critical path"), std::string::npos);
}

TEST_F(ReportFixture, ManifestSidecarAndEmbeddedHeadersAgree) {
  make_run();
  const fs::path sidecar = dir_ / "run" / "manifest.json";
  ASSERT_TRUE(fs::exists(sidecar));

  const auto side = obs::parse_jsonl_line(first_line(sidecar));
  ASSERT_TRUE(side.has_value());
  EXPECT_EQ(side->text("type"), "manifest");
  EXPECT_EQ(side->text("command"), "distributed");
  EXPECT_EQ(side->text("timestamp"), "2026-08-06T00:00:00Z");
  EXPECT_EQ(side->text("cfg_tau"), "4");
  EXPECT_EQ(side->text("cfg_loss"), "0.1");
  EXPECT_EQ(side->text("cfg_async"), "on");
  EXPECT_TRUE(side->has("exec_threads"));
  EXPECT_TRUE(side->has("exec_obs-out"));
  EXPECT_FALSE(side->text("git_sha").empty());

  // Both streams start with the embedded header; it is the semantic subset
  // of the sidecar — same cfg_ values, no timestamp, no exec_ keys.
  for (const std::string& stream : {metrics_, trace_}) {
    const auto head = obs::parse_jsonl_line(first_line(stream));
    ASSERT_TRUE(head.has_value()) << stream;
    EXPECT_EQ(head->text("type"), "manifest");
    EXPECT_FALSE(head->has("timestamp"));
    for (const auto& [key, value] : head->fields()) {
      EXPECT_EQ(side->text(key), value) << key;
      EXPECT_NE(key.rfind("exec_", 0), 0u) << key;
    }
  }
}

TEST_F(ReportFixture, LoggingOptionsDoNotPerturbArtifacts) {
  make_run();
  const std::string sched_a = read_file(sched_);
  const std::string trace_a = read_file(trace_);

  // Re-run the identical config with every diagnostics knob turned up: the
  // schedule and the trace must stay byte-identical (log options are
  // execution detail — sidecar-only, never embedded, never on the wire).
  const std::string log_path = (dir_ / "run.log").string();
  make_run({"--log-level", "debug", "--flight", "64", "--log-out",
            log_path.c_str()});
  EXPECT_EQ(read_file(sched_), sched_a);
  EXPECT_EQ(read_file(trace_), trace_a);

  // The debug log actually captured the per-round lines.
  const std::string log_text = read_file(log_path);
  EXPECT_NE(log_text.find("level=debug"), std::string::npos);
  EXPECT_NE(log_text.find("alpha-sync batch"), std::string::npos);
}

TEST_F(ReportFixture, ReportRefusesATruncatedTrace) {
  make_run();
  // Cut the trace immediately after a round opens: the tail that would
  // close it is gone, which is exactly what a crashed run leaves behind.
  std::ifstream in(trace_);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
    if (line.find("sched_round_begin") != std::string::npos) break;
  }
  ASSERT_GT(lines.size(), 1u);
  in.close();
  std::ofstream outf(trace_);
  for (const std::string& l : lines) outf << l << "\n";
  outf.close();

  std::string out;
  EXPECT_EQ(run({"report", bundle_.c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("violation:"), std::string::npos) << out;
  EXPECT_NE(out.find("refusing to render an inconsistent trace"),
            std::string::npos)
      << out;
  EXPECT_FALSE(fs::exists(dir_ / "r.html"));
}

TEST_F(ReportFixture, ReportRefusesArtifactsFromDifferentRuns) {
  make_run();
  // A second run with a different MIS seed into its own bundle; its trace
  // copied over the first run's must not combine with that run's rounds.
  const fs::path other = dir_ / "b";
  std::string out;
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--out",
                 (dir_ / "sched-b.tgc").string().c_str(), "--tau", "4",
                 "--seed", "9", "--async", "--loss", "0.1", "--retransmit",
                 "3", "--obs-out", other.string().c_str(), "--obs", "trace"},
                &out),
            0)
      << out;
  fs::copy_file(other / "trace.jsonl", trace_,
                fs::copy_options::overwrite_existing);

  EXPECT_EQ(run({"report", bundle_.c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("come from different runs"), std::string::npos) << out;
  EXPECT_NE(out.find("cfg_seed"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(dir_ / "r.html"));
}

TEST_F(ReportFixture, ReportRequiresRoundRecords) {
  make_run();
  // A stream holding only the manifest header (a run that died before its
  // first round) is refused with a pointer at --obs-out.
  const std::string empty = (dir_ / "header_only.jsonl").string();
  std::ofstream outf(empty);
  outf << first_line(metrics_) << "\n";
  outf.close();
  std::string out;
  EXPECT_EQ(run({"report", empty.c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no telemetry records"), std::string::npos) << out;
  EXPECT_NE(out.find("manifest only"), std::string::npos) << out;
  EXPECT_NE(out.find("--obs-out"), std::string::npos) << out;
}

TEST_F(ReportFixture, ReportTextSkipsTheManifestHeaders) {
  make_run();
  // Each stream alone: the embedded manifest line is folded away, never
  // counted as an unreadable line (which would make report exit 1).
  std::string out;
  const std::string html = (dir_ / "r.html").string();
  EXPECT_EQ(run({"report", metrics_.c_str(), "--out", html.c_str()}, &out), 0)
      << out;
  EXPECT_NE(out.find("summary:"), std::string::npos);
  EXPECT_EQ(run({"report", trace_.c_str(), "--out", html.c_str()}, &out), 0)
      << out;
  EXPECT_NE(out.find("trace OK"), std::string::npos);
}

TEST_F(ReportFixture, VersionReportsBuildProvenance) {
  for (const char* spelling : {"version", "--version", "-V"}) {
    std::string out;
    EXPECT_EQ(run({spelling}, &out), 0);
    EXPECT_NE(out.find("tgcover "), std::string::npos) << spelling;
    EXPECT_NE(out.find("git:"), std::string::npos) << spelling;
    EXPECT_NE(out.find("build:"), std::string::npos) << spelling;
    EXPECT_NE(out.find("flags:"), std::string::npos) << spelling;
  }
}

TEST_F(ReportFixture, HelpEnumeratesEverySubcommand) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  for (const char* cmd :
       {"generate", "schedule", "verify", "quality", "render", "distributed",
        "repair", "fleet", "report", "version"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
  }
  // `report` is the only renderer; tools/bench_gate.py diffs runs and
  // bench_ablation_parallel owns the thread ladder.
  for (const char* gone :
       {"stats", "trace-analyze", "fleet-report", "profile-report",
        "node-report", "quality-report", "scale", "compare"}) {
    EXPECT_EQ(out.find(gone), std::string::npos) << gone;
  }
  EXPECT_NE(out.find("--log-level"), std::string::npos);
  EXPECT_NE(out.find("--obs-out"), std::string::npos);
  EXPECT_NE(out.find("manifest.json"), std::string::npos);
}

TEST_F(ReportFixture, UnknownOptionNamesTheSubcommand) {
  try {
    run({"distributed", "--bogus", "1"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("tgcover distributed: unknown option --bogus"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ReportFixture, BadLogLevelNamesTheSubcommand) {
  try {
    run({"schedule", "--log-level", "loud"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tgcover schedule"), std::string::npos) << what;
    EXPECT_NE(what.find("bad --log-level 'loud'"), std::string::npos) << what;
  }
}

TEST_F(ReportFixture, UnwritableMetricsSinkFailsWithLoggedReason) {
  std::string gen_out;
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "120", "--degree",
                 "20", "--seed", "7", "--out", net_.c_str()},
                &gen_out),
            0);
  std::ostringstream log;
  obs::set_log_stream(&log);
  std::string out;
  // The bundle directory cannot be created under a regular file.
  const std::string blocked = (dir_ / "net.tgc" / "run").string();
  EXPECT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--obs-out", blocked.c_str()},
                &out),
            1);
  obs::set_log_stream(nullptr);
  EXPECT_NE(log.str().find("sink failed"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("error="), std::string::npos) << log.str();
}

}  // namespace
}  // namespace tgc::app
