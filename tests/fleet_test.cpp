// End-to-end tests of the fleet campaign runner and its aggregate
// observability surface: grid expansion over the thread pool, the streaming
// JSONL sink with its embedded manifest, per-run schedule digests matching
// individually-run `tgcover schedule`, failed cells as status:"failed" rows
// with a non-zero drain exit, byte-deterministic `tgcover report` rendering
// across invocations and thread counts, the JSON spec file, and the
// compare --save / --against-last baseline workflow.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/jsonl.hpp"
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

/// Pulls "(digest 0123abcd....)" out of a schedule/distributed stdout line.
std::string digest_of(const std::string& out) {
  const std::size_t at = out.find("(digest ");
  if (at == std::string::npos) return "";
  return out.substr(at + 8, 16);
}

class FleetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_fleet_test_") + info->name());
    fs::create_directories(dir_);
    setenv("TGC_RUN_TIMESTAMP", "2026-08-07T00:00:00Z", 1);
    sink_ = (dir_ / "fleet.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string sink_;
};

TEST_F(FleetFixture, GridDigestsMatchIndividualScheduleRuns) {
  // The acceptance grid: 3 node counts x 3 taus x 2 seeds, executed over 4
  // pool workers. Every record's schedule digest must be byte-identical to
  // the same configuration run one-off through generate + schedule.
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40,50,60",
                 "--degrees", "10", "--taus", "3,4,5", "--seeds", "1,2",
                 "--threads", "4", "--no-progress", "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("18 runs"), std::string::npos);

  const Bundle sink = load_bundle(sink_);
  ASSERT_TRUE(sink.error.empty()) << sink.error;
  ASSERT_EQ(sink.of("run").size(), 18u);
  ASSERT_TRUE(sink.manifest.has_value());
  EXPECT_EQ(sink.manifest->text("cfg_nodes"), "40,50,60");
  EXPECT_EQ(sink.manifest->text("cfg_taus"), "3,4,5");

  for (const obs::JsonRecord& rec : sink.of("run")) {
    ASSERT_EQ(rec.text("status"), "ok") << rec.text("error");
    const std::string nodes = std::to_string(rec.u64("nodes"));
    const std::string tau = std::to_string(rec.u64("tau"));
    const std::string seed = std::to_string(rec.u64("seed"));
    const std::string net = (dir_ / ("n" + nodes + "s" + seed + ".tgc")).string();
    const std::string mask = (dir_ / "mask.tgc").string();
    ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", nodes.c_str(),
                   "--degree", "10", "--seed", seed.c_str(), "--out",
                   net.c_str()}),
              0);
    std::string sched_out;
    ASSERT_EQ(run({"schedule", "--in", net.c_str(), "--tau", tau.c_str(),
                   "--seed", seed.c_str(), "--out", mask.c_str()},
                  &sched_out),
              0);
    EXPECT_EQ(rec.text("schedule_digest"), digest_of(sched_out))
        << "n=" << nodes << " tau=" << tau << " seed=" << seed;
    // The one-off run reports the same survivor count on its stdout line.
    EXPECT_NE(sched_out.find(": " + std::to_string(rec.u64("survivors")) +
                             " of " + nodes),
              std::string::npos)
        << sched_out;
  }
}

TEST_F(FleetFixture, LossyCellsScheduleIdenticallyAndCountTraffic) {
  // PR3 invariant carried into campaigns: the async lossy engine must
  // produce the same schedule (digest) as the oracle cell, while the lossy
  // record actually accounts radio traffic and retransmissions.
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "4", "--losses", "0,0.2", "--seeds", "1",
                 "--threads", "2", "--no-progress", "--out", sink_.c_str()}),
            0);
  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);
  const obs::JsonRecord& oracle = sink.of("run")[0];
  const obs::JsonRecord& lossy = sink.of("run")[1];
  EXPECT_DOUBLE_EQ(oracle.number("loss"), 0.0);
  EXPECT_DOUBLE_EQ(lossy.number("loss"), 0.2);
  EXPECT_EQ(oracle.text("schedule_digest"), lossy.text("schedule_digest"));
  EXPECT_EQ(oracle.u64("messages"), 0u);
  EXPECT_GT(lossy.u64("messages"), 0u);
  EXPECT_GT(lossy.u64("messages_lost"), 0u);
  EXPECT_GT(lossy.u64("retransmissions"), 0u);
}

TEST_F(FleetFixture, FailedCellsBecomeRowsAndTheCampaignDrains) {
  std::string out;
  const int rc =
      run({"fleet", "--models", "udg,bogus", "--nodes", "40", "--degrees",
           "10", "--taus", "3", "--seeds", "1", "--threads", "2",
           "--no-progress", "--out", sink_.c_str()},
          &out);
  EXPECT_EQ(rc, 1);  // non-zero after the grid drains, not an abort
  EXPECT_NE(out.find("1 FAILED"), std::string::npos);

  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);  // the good cell still completed
  EXPECT_EQ(sink.of("run")[0].text("status"), "ok");
  EXPECT_EQ(sink.of("run")[1].text("status"), "failed");
  EXPECT_NE(sink.of("run")[1].text("error").find("unknown deployment model"),
            std::string::npos);

  // The dashboard renders failed campaigns too, with the failure table.
  const std::string html_path = (dir_ / "fleet.html").string();
  ASSERT_EQ(run({"report", sink_.c_str(), "--out", html_path.c_str()},
                &out),
            0)
      << out;
  const std::string html = read_file(html_path);
  EXPECT_NE(html.find("Failed runs"), std::string::npos);
  EXPECT_NE(html.find("bogus"), std::string::npos);
}

TEST_F(FleetFixture, ReportIsByteIdenticalAcrossInvocationsAndThreadCounts) {
  const std::string sink4 = (dir_ / "f4.jsonl").string();
  const std::string sink1 = (dir_ / "f1.jsonl").string();
  for (const auto& [threads, sink] :
       {std::pair<const char*, const std::string*>{"4", &sink4},
        {"1", &sink1}}) {
    ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40,50", "--degrees",
                   "10", "--taus", "3,4", "--seeds", "1,2", "--threads",
                   threads, "--no-progress", "--out", sink->c_str()}),
              0);
  }
  const std::string r1 = (dir_ / "r1.html").string();
  const std::string r2 = (dir_ / "r2.html").string();
  const std::string r3 = (dir_ / "r3.html").string();
  ASSERT_EQ(run({"report", sink4.c_str(), "--out", r1.c_str()}), 0);
  ASSERT_EQ(run({"report", sink4.c_str(), "--out", r2.c_str()}), 0);
  ASSERT_EQ(run({"report", sink1.c_str(), "--out", r3.c_str()}), 0);
  const std::string a = read_file(r1);
  EXPECT_EQ(a, read_file(r2));  // same sink, repeated render
  EXPECT_EQ(a, read_file(r3));  // 1-thread sink: records landed in a
                                // different order, dashboard identical
  EXPECT_NE(a.find("mean awake ratio"), std::string::npos);
  EXPECT_NE(a.find("spark"), std::string::npos);  // across-seed sparklines
}

TEST_F(FleetFixture, SpecFileExpandsAndFlagsOverrideIt) {
  const std::string spec = (dir_ / "grid.json").string();
  {
    std::ofstream f(spec);
    f << "{\n  \"models\": \"udg\",\n  \"nodes\": \"40,50\",\n"
         "  \"degrees\": \"10\",\n  \"taus\": \"3,4\",\n"
         "  \"seeds\": \"1\"\n}\n";
  }
  std::string out;
  ASSERT_EQ(run({"fleet", "--spec", spec.c_str(), "--taus", "3", "--threads",
                 "2", "--no-progress", "--out", sink_.c_str()},
                &out),
            0)
      << out;
  // --taus 3 overrides the spec file's "3,4": 2 nodes x 1 tau x 1 seed.
  EXPECT_NE(out.find("2 runs"), std::string::npos);
  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);
  EXPECT_EQ(sink.manifest->text("cfg_taus"), "3");
  EXPECT_EQ(sink.manifest->text("cfg_nodes"), "40,50");
}

TEST_F(FleetFixture, BadSpecInputsAreNamedErrors) {
  FleetSpec spec;
  std::string error;
  EXPECT_FALSE(apply_fleet_key(spec, "nope", "1", error));
  EXPECT_NE(error.find("unknown fleet spec key"), std::string::npos);
  EXPECT_FALSE(apply_fleet_key(spec, "nodes", "40,x", error));
  EXPECT_FALSE(apply_fleet_key(spec, "losses", "0.95", error));  // > cap
  EXPECT_FALSE(apply_fleet_key(spec, "taus", "", error));
  EXPECT_TRUE(apply_fleet_key(spec, "losses", "0,0.5", error)) << error;
  EXPECT_FALSE(load_fleet_spec((dir_ / "absent.json").string(), spec, error));
  const std::string bad = (dir_ / "bad.json").string();
  {
    std::ofstream f(bad);
    f << "[1,2,3]\n";
  }
  EXPECT_FALSE(load_fleet_spec(bad, spec, error));
}

TEST_F(FleetFixture, CompareSaveAndAgainstLastRoundTrip) {
  const std::string net = (dir_ / "net.tgc").string();
  const std::string mask = (dir_ / "mask.tgc").string();
  const fs::path run_a = dir_ / "run-a";
  const fs::path run_b = dir_ / "run-b";
  const std::string baseline = (dir_ / "baseline").string();
  fs::create_directories(run_a);
  fs::create_directories(run_b);
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "60", "--degree",
                 "10", "--seed", "1", "--out", net.c_str()}),
            0);
  ASSERT_EQ(run({"schedule", "--in", net.c_str(), "--tau", "3", "--out",
                 mask.c_str(), "--obs-out", run_a.string().c_str()}),
            0);
  ASSERT_EQ(run({"schedule", "--in", net.c_str(), "--tau", "3", "--out",
                 mask.c_str(), "--obs-out", run_b.string().c_str()}),
            0);

  // No baseline yet: --against-last is a named error, not a crash.
  std::string out;
  EXPECT_EQ(run({"compare", run_b.string().c_str(), "--against-last",
                 "--baseline-dir", baseline.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no saved baseline"), std::string::npos);

  // Seed the slot with a single run (no comparison happens).
  ASSERT_EQ(run({"compare", run_a.string().c_str(), "--save",
                 "--baseline-dir", baseline.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("saved baseline"), std::string::npos);
  EXPECT_TRUE(fs::exists(fs::path(baseline) / "cost.jsonl"));

  // Same build + config: the diff is clean, and --save rolls the baseline.
  const std::string json = (dir_ / "cmp.json").string();
  const std::string html = (dir_ / "cmp.html").string();
  ASSERT_EQ(run({"compare", run_b.string().c_str(), "--against-last",
                 "--save", "--baseline-dir", baseline.c_str(), "--json",
                 json.c_str(), "--out", html.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("logical cost"), std::string::npos);
  EXPECT_NE(out.find("saved baseline"), std::string::npos);
}

// ------------------------------------------------------------------ resume

TEST_F(FleetFixture, ResumeSkipsOkCellsAndAppendsOnlyTheMissing) {
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40,50", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", sink_.c_str()},
                &out),
            0)
      << out;
  const Bundle full = load_bundle(sink_);
  ASSERT_EQ(full.of("run").size(), 4u);

  // Simulate a killed campaign: drop the last two run records (keep the
  // manifest header + two ok rows), then resume.
  {
    std::ifstream in(sink_);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 5u);  // manifest + 4 runs
    std::ofstream trunc(sink_, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) trunc << lines[i] << "\n";
  }
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40,50", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("2 of 4 cells already ok, 2 to run"), std::string::npos)
      << out;

  const Bundle resumed = load_bundle(sink_);
  ASSERT_EQ(resumed.of("run").size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(resumed.of("run")[i].u64("run"), i);
    EXPECT_EQ(resumed.of("run")[i].text("status"), "ok");
  }
  // The original manifest header survives the append (exactly one header).
  std::size_t manifests = 0;
  std::ifstream in(sink_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"manifest\"") != std::string::npos) ++manifests;
  }
  EXPECT_EQ(manifests, 1u);

  // Resuming a complete sink runs nothing: one clean "nothing to do" line
  // (no 0-cell resuming banner, no degenerate ETA), exit 0, and the sink is
  // left byte-identical — not even reopened for append.
  const std::string before = read_file(sink_);
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40,50", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("nothing to do"), std::string::npos) << out;
  EXPECT_NE(out.find("all 4 cells"), std::string::npos) << out;
  EXPECT_EQ(out.find("to run"), std::string::npos) << out;
  EXPECT_EQ(out.find("eta"), std::string::npos) << out;
  EXPECT_EQ(read_file(sink_), before);
}

TEST_F(FleetFixture, NodeTelemetryStreamsIntoSharedSinkAndRecordColumns) {
  const std::string nt = (dir_ / "obs" / "nodes.jsonl").string();
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--obs-out", (dir_ / "obs").string().c_str(), "--obs",
                 "nodes", "--out", sink_.c_str()},
                &out),
            0)
      << out;
  // Armed records carry the telemetry roll-up columns.
  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);
  for (const obs::JsonRecord& rec : sink.of("run")) {
    EXPECT_TRUE(rec.has("max_node_energy"));
    EXPECT_TRUE(rec.has("traffic_gini"));
    EXPECT_GT(rec.number("max_node_energy"), 0.0);
  }
  // The shared telemetry sink: one manifest header, per-run node_summary
  // rows tagged with the run id, one telemetry_summary per run.
  std::ifstream in(nt);
  std::string line;
  std::size_t manifests = 0, summaries = 0, node_rows = 0;
  std::set<std::uint64_t> runs_seen;
  while (std::getline(in, line)) {
    const auto rec = obs::parse_jsonl_line(line);
    ASSERT_TRUE(rec.has_value()) << line;
    if (rec->text("type") == "manifest") ++manifests;
    if (rec->text("type") == "node_summary") {
      ++node_rows;
      runs_seen.insert(rec->u64("run"));
    }
    if (rec->text("type") == "telemetry_summary") ++summaries;
  }
  EXPECT_EQ(manifests, 1u);
  EXPECT_EQ(summaries, 2u);
  EXPECT_EQ(node_rows, 2u * 40u);
  EXPECT_EQ(runs_seen.size(), 2u);

  // An unarmed campaign writes records without the telemetry columns — the
  // sink schema (and the bench gate's field set) is unchanged when off.
  const std::string plain = (dir_ / "plain.jsonl").string();
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", plain.c_str()},
                &out),
            0)
      << out;
  const Bundle off = load_bundle(plain);
  ASSERT_EQ(off.of("run").size(), 2u);
  for (const obs::JsonRecord& rec : off.of("run")) {
    EXPECT_FALSE(rec.has("max_node_energy"));
    EXPECT_FALSE(rec.has("traffic_gini"));
    // Telemetry never perturbs the schedule: digests match the armed run.
  }
  EXPECT_EQ(off.of("run")[0].text("schedule_digest"),
            sink.of("run")[0].text("schedule_digest"));
  EXPECT_EQ(off.of("run")[1].text("schedule_digest"),
            sink.of("run")[1].text("schedule_digest"));
}

TEST_F(FleetFixture, ResumeRefusesASinkFromADifferentGrid) {
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1", "--no-progress",
                 "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--out", sink_.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("different campaign"), std::string::npos) << out;
  EXPECT_NE(out.find("cfg_seeds"), std::string::npos) << out;
}

TEST_F(FleetFixture, LoadFleetSinkKeepsTheLastRecordPerRunId) {
  {
    std::ofstream f(sink_);
    f << "{\"type\":\"run\",\"run\":1,\"status\":\"failed\","
         "\"error\":\"boom\"}\n"
      << "{\"type\":\"run\",\"run\":0,\"status\":\"ok\",\"survivors\":7}\n"
      << "{\"type\":\"run\",\"run\":1,\"status\":\"ok\",\"survivors\":9}\n";
  }
  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);
  EXPECT_EQ(sink.of("run")[0].u64("run"), 0u);
  EXPECT_EQ(sink.of("run")[1].u64("run"), 1u);
  // The re-run row (later in file order) supersedes the failed one.
  EXPECT_EQ(sink.of("run")[1].text("status"), "ok");
  EXPECT_EQ(sink.of("run")[1].u64("survivors"), 9u);
}

}  // namespace
}  // namespace tgc::app
