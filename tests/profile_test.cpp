// End-to-end and unit tests of the parallel-execution profiler: single-writer
// lane rings with exact accumulators under wraparound, RSS high-water
// semantics, the `--obs profile` CLI surface (profiler-off invariance of the
// cost stream, pinned-timestamp sidecar determinism), byte-deterministic
// `tgcover report` profile sections, and thread-count-invariant phase
// items.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"

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

/// Collects the parsed records of one type from a JSONL file.
std::vector<obs::JsonRecord> records_of(const fs::path& path,
                                        const std::string& type) {
  std::vector<obs::JsonRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<obs::JsonRecord> rec = obs::parse_jsonl_line(line);
    if (rec.has_value() && rec->text("type") == type) out.push_back(*rec);
  }
  return out;
}

class ProfileFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_profile_test_") + info->name());
    fs::create_directories(dir_);
    setenv("TGC_RUN_TIMESTAMP", "2026-08-07T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void generate(const char* nodes = "120") {
    std::string out;
    ASSERT_EQ(run({"generate", "--nodes", nodes, "--degree", "10", "--out",
                   net_.c_str()},
                  &out),
              0)
        << out;
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
  std::string net_;
};

// ------------------------------------------------------------ ring semantics

TEST(ProfileRing, WraparoundDropsOldestButAccumulatorsStayExact) {
  obs::profile_begin(1, /*ring_capacity=*/8);
  ASSERT_TRUE(obs::profile_active());
  // 20 tasks from the driver lane (lane 0, registered by profile_begin)
  // against a ring of 8: the ring keeps the newest 8 events, but the
  // summary counters must still see all 20. The item count encodes the
  // emission index (start times rebase to the session clock, so they are
  // not usable as synthetic markers here).
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::profile_task(obs::now_ns(), /*dur_ns=*/50, /*items=*/i + 1);
  }
  const obs::ProfileData data = obs::profile_end();
  ASSERT_EQ(data.workers.size(), 1u);
  const obs::WorkerProfile& w = data.workers[0];
  EXPECT_EQ(w.events.size(), 8u);
  EXPECT_EQ(w.dropped, 12u);
  EXPECT_TRUE(data.truncated());
  EXPECT_EQ(w.tasks, 20u);
  EXPECT_EQ(w.items, 20u * 21u / 2u);  // sum 1..20 — exact despite the drops
  EXPECT_EQ(w.busy_ns, 50u * 20u);
  // Oldest-first drain of the surviving window: tasks 13..20 in order.
  for (std::size_t i = 0; i < w.events.size(); ++i) {
    EXPECT_EQ(w.events[i].value, 13u + i);
  }
}

TEST(ProfileRing, EventsFromUnregisteredThreadsAreCountedNotRecorded) {
  obs::profile_begin(1, 8);
  std::thread([] {
    // This thread never called profile_set_lane: its events must land in
    // off_lane_events, not crash or corrupt another lane's ring.
    obs::profile_task(0, 10, 1);
  }).join();
  const obs::ProfileData data = obs::profile_end();
  EXPECT_EQ(data.off_lane_events, 1u);
  ASSERT_EQ(data.workers.size(), 1u);
  EXPECT_EQ(data.workers[0].tasks, 0u);
}

TEST(ProfileRing, PeakRssIsMonotoneAndReflectsGrowth) {
  const std::uint64_t before = obs::peak_rss_bytes();
  ASSERT_GT(before, 0u);
  // Touch 32 MiB so the high-water mark must move (or at least not drop).
  std::vector<char> ballast(32u << 20, 1);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 2;
  const std::uint64_t after = obs::peak_rss_bytes();
  EXPECT_GE(after, before);
  ballast.clear();
  ballast.shrink_to_fit();
  // ru_maxrss is a high-water mark: freeing memory must never lower it.
  EXPECT_GE(obs::peak_rss_bytes(), after);
}

// --------------------------------------------------------------- CLI surface

TEST_F(ProfileFixture, CostStreamIsByteIdenticalWithProfilerOnAndOff) {
  generate();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s1.tgc").c_str(), "--obs-out", path("plain").c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s2.tgc").c_str(), "--obs-out", path("prof").c_str(),
                 "--obs", "profile"},
                &out),
            0)
      << out;
  // Arming the profiler must not perturb any deterministic artifact.
  EXPECT_EQ(read_file(dir_ / "plain" / "cost.jsonl"),
            read_file(dir_ / "prof" / "cost.jsonl"));
  EXPECT_EQ(read_file(path("s1.tgc")), read_file(path("s2.tgc")));

  const std::vector<obs::JsonRecord> headers =
      records_of(dir_ / "prof" / "profile.jsonl", "profile_header");
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].u64("workers"), 2u);
  EXPECT_EQ(headers[0].u64("off_lane_events"), 0u);
  EXPECT_GT(headers[0].u64("forks"), 0u);
}

TEST_F(ProfileFixture, SidecarManifestIsByteIdenticalAcrossRerunsWhenPinned) {
  generate();
  const std::string prof = path("prof");
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s.tgc").c_str(), "--obs-out", prof.c_str(), "--obs",
                 "profile"},
                &out),
            0)
      << out;
  const std::string first = read_file(dir_ / "prof" / "manifest.json");
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s.tgc").c_str(), "--obs-out", prof.c_str(), "--obs",
                 "profile"},
                &out),
            0)
      << out;
  EXPECT_EQ(first, read_file(dir_ / "prof" / "manifest.json"));
  // The resolved worker count and the machine's concurrency are execution
  // keys every profile artifact must carry.
  EXPECT_NE(first.find("\"exec_threads\":\"2\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"exec_hardware_concurrency\""), std::string::npos);
}

TEST_F(ProfileFixture, ReportRendersByteIdenticallyAcrossInvocations) {
  generate();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s.tgc").c_str(), "--obs-out", path("prof").c_str(),
                 "--obs", "profile"},
                &out),
            0)
      << out;
  const std::string stream = (dir_ / "prof" / "profile.jsonl").string();
  ASSERT_EQ(run({"report", stream.c_str(), "--out", path("r1.html").c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"report", stream.c_str(), "--out", path("r2.html").c_str()},
                &out),
            0)
      << out;
  const std::string html = read_file(path("r1.html"));
  EXPECT_EQ(html, read_file(path("r2.html")));
  EXPECT_NE(html.find("Worker timeline"), std::string::npos);
  EXPECT_NE(html.find("Phase breakdown"), std::string::npos);
  EXPECT_NE(html.find("Parallel efficiency"), std::string::npos);
  // The bundle's Chrome export names the synthetic worker process.
  EXPECT_NE(read_file(dir_ / "prof" / "profile.chrome.json")
                .find("tgcover pool workers"),
            std::string::npos);
}

TEST_F(ProfileFixture, ReportRefusesASinkWithoutAProfileHeader) {
  std::ofstream(path("headless.jsonl"))
      << "{\"type\":\"manifest\"}\n"
      << "{\"type\":\"phase_summary\",\"phase\":\"verdicts\",\"items\":3}\n";
  std::string out;
  EXPECT_EQ(run({"report", path("headless.jsonl").c_str(), "--out",
                 path("r.html").c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no profile_header record"), std::string::npos) << out;
}

TEST_F(ProfileFixture, PhaseItemsAreInvariantAcrossThreadCounts) {
  generate();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "1", "--out",
                 path("s1.tgc").c_str(), "--obs-out", path("p1").c_str(),
                 "--obs", "profile"},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "3", "--out",
                 path("s3.tgc").c_str(), "--obs-out", path("p3").c_str(),
                 "--obs", "profile"},
                &out),
            0)
      << out;
  const std::vector<obs::JsonRecord> one =
      records_of(dir_ / "p1" / "profile.jsonl", "phase_summary");
  const std::vector<obs::JsonRecord> three =
      records_of(dir_ / "p3" / "profile.jsonl", "phase_summary");
  ASSERT_EQ(one.size(), three.size());
  ASSERT_FALSE(one.empty());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].text("phase"), three[i].text("phase"));
    // Items are work units (nodes tested): a pure function of the schedule,
    // not of how the chunks landed on workers.
    EXPECT_EQ(one[i].u64("items"), three[i].u64("items"))
        << one[i].text("phase");
  }
}

// ------------------------------------------------------------- loader round

TEST_F(ProfileFixture, LoadProfileRoundTripsSummaries) {
  generate();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--threads", "2", "--out",
                 path("s.tgc").c_str(), "--obs-out", path("prof").c_str(),
                 "--obs", "profile"},
                &out),
            0)
      << out;
  const fs::path stream = dir_ / "prof" / "profile.jsonl";
  const Bundle load = load_bundle(stream.string());
  ASSERT_TRUE(load.error.empty()) << load.error;
  ASSERT_TRUE(load.manifest.has_value());
  const obs::ProfileData data = profile_of(load);
  ASSERT_EQ(data.workers.size(), 2u);
  const std::vector<obs::JsonRecord> summaries =
      records_of(stream, "worker_summary");
  ASSERT_EQ(summaries.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(data.workers[w].tasks, summaries[w].u64("tasks"));
    EXPECT_EQ(data.workers[w].items, summaries[w].u64("items"));
    EXPECT_EQ(data.workers[w].busy_ns, summaries[w].u64("busy_ns"));
  }
  EXPECT_GT(data.wall_ns, 0u);
  EXPECT_GT(data.memory.peak_rss_end_bytes, 0u);
}

}  // namespace
}  // namespace tgc::app
