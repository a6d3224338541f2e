// Unit tests for the observability trio behind `--log-level` / `--flight`:
// leveled structured logging (obs/log.hpp), the flight-recorder ring
// (obs/flight.hpp) and its TGC_CHECK post-mortem hook, and the run-manifest
// serialization (obs/manifest.hpp).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tgcover/obs/flight.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/manifest.hpp"
#include "tgcover/util/check.hpp"

namespace tgc {
namespace {

using obs::LogLevel;

/// Logging and the flight recorder are process-wide; every test starts from
/// a clean slate (own sink, debug threshold, recorder off and empty) and
/// restores the defaults so no state leaks into later tests of this binary.
class ObsLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_flight_capacity(0);
    obs::flight_clear();
    obs::set_log_stream(&sink_);
    obs::set_log_level(LogLevel::kDebug);
  }
  void TearDown() override {
    obs::reset_logging();
    obs::set_flight_capacity(0);
    obs::flight_clear();
  }

  std::ostringstream sink_;
};

TEST_F(ObsLogTest, LevelNamesRoundTrip) {
  for (const LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kDebug;
    ASSERT_TRUE(obs::parse_log_level(obs::log_level_name(l), parsed));
    EXPECT_EQ(parsed, l);
  }
  LogLevel parsed = LogLevel::kDebug;
  EXPECT_FALSE(obs::parse_log_level("verbose", parsed));
  EXPECT_FALSE(obs::parse_log_level("", parsed));
  EXPECT_FALSE(obs::parse_log_level("INFO", parsed));  // names are lower-case
}

TEST_F(ObsLogTest, RuntimeThresholdFiltersSink) {
  obs::set_log_level(LogLevel::kError);
  TGC_LOG(kWarn) << "below threshold";  // clears every floor, not the sink
  TGC_LOG(kError) << "above threshold";
  const std::string text = sink_.str();
  EXPECT_EQ(text.find("below threshold"), std::string::npos);
  EXPECT_NE(text.find("above threshold"), std::string::npos);
  // Structured prefix: level name and a path-stripped source location.
  EXPECT_NE(text.find("level=error src=obs_log_test.cpp:"), std::string::npos);
  EXPECT_EQ(text.find('/'), std::string::npos);  // no build paths in lines

  obs::set_log_level(LogLevel::kOff);
  TGC_LOG(kError) << "silenced";
  EXPECT_EQ(sink_.str().find("silenced"), std::string::npos);
}

TEST_F(ObsLogTest, KvTokensFormatNumbersBareAndStringsQuoted) {
  TGC_LOG(kError) << "round done" << obs::kv("round", 7)
                 << obs::kv("loss", 0.25) << obs::kv("file", "a\"b\\c")
                 << obs::kv("ok", true);
  const std::string text = sink_.str();
  EXPECT_NE(text.find("round done round=7 loss=0.25 file=\"a\\\"b\\\\c\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ok=1"), std::string::npos);
  EXPECT_NE(text.find("level=error src=obs_log_test.cpp:"), std::string::npos);
}

int touch(int& counter) { return ++counter; }

TEST_F(ObsLogTest, ArgumentsNotEvaluatedWhenNothingRetainsTheLine) {
  // Threshold kOff and recorder off: the statement's argument expressions
  // must not run (TGC_LOG is a short-circuit, not a formatted-then-dropped
  // line) — that is what makes instrumented hot loops free when quiet.
  obs::set_log_level(LogLevel::kOff);
  int hits = 0;
  TGC_LOG(kError) << "never formatted" << touch(hits);
  EXPECT_EQ(hits, 0);

  // The flight recorder alone retains lines below the sink threshold, so
  // turning it on re-enables evaluation even while the sink stays silent.
  obs::set_flight_capacity(8);
  TGC_LOG(kError) << "ring only" << touch(hits);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sink_.str().find("ring only"), std::string::npos);
  const std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(std::string(records[0].text).find("ring only"), std::string::npos);
}

TEST_F(ObsLogTest, FlightRingWrapsKeepingTheNewestRecords) {
  obs::set_flight_capacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::flight_note(LogLevel::kDebug, "note " + std::to_string(i));
  }
  const std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  ASSERT_EQ(records.size(), 4u);  // ring holds the last `capacity` records
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(records[i].text, ("note " + std::to_string(6 + i)).c_str());
    EXPECT_EQ(records[i].seq, static_cast<std::uint64_t>(7 + i));
  }
}

TEST_F(ObsLogTest, FlightCapacityClampsAndTruncatesText) {
  obs::set_flight_capacity(1u << 20);
  EXPECT_EQ(obs::flight_capacity(), obs::kFlightMaxCapacity);

  obs::set_flight_capacity(2);
  obs::flight_note(LogLevel::kWarn, std::string(1000, 'x'));
  const std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::string(records[0].text).size(), obs::kFlightMaxText - 1);
}

TEST_F(ObsLogTest, CheckFailureDumpsTheRingToTheLogSink) {
  obs::set_flight_capacity(16);
  obs::set_log_level(LogLevel::kOff);  // breadcrumbs stay off the sink...
  // kOff mutes even kError breadcrumbs on the sink; the ring keeps them.
  TGC_LOG(kError) << "breadcrumb one" << obs::kv("round", 1);
  TGC_LOG(kError) << "breadcrumb two" << obs::kv("round", 2);
  EXPECT_EQ(sink_.str(), "");

  EXPECT_THROW(TGC_CHECK_MSG(1 == 2, "arithmetic still works"), CheckError);

  // ...but the failure dump replays them, JSONL-framed, with the reason.
  const std::string text = sink_.str();
  EXPECT_NE(text.find("\"type\":\"flight_dump\""), std::string::npos) << text;
  EXPECT_NE(text.find("check failed: 1 == 2"), std::string::npos);
  EXPECT_NE(text.find("arithmetic still works"), std::string::npos);
  EXPECT_NE(text.find("breadcrumb one"), std::string::npos);
  EXPECT_NE(text.find("breadcrumb two"), std::string::npos);
  // Every dumped record parses as a flat JSONL line.
  std::istringstream lines(text);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') continue;
    ASSERT_TRUE(obs::parse_jsonl_line(line).has_value()) << line;
    ++parsed;
  }
  EXPECT_GE(parsed, 4u);  // dump header + failure note + two breadcrumbs
}

TEST_F(ObsLogTest, CheckFailureWithRecorderOffStaysQuiet) {
  EXPECT_THROW(TGC_CHECK(false), CheckError);
  EXPECT_EQ(sink_.str(), "");  // no dump spam unless --flight opted in
}

TEST_F(ObsLogTest, ConcurrentFlightNotesMergeBySeq) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kNotes = 100;
  constexpr std::size_t kCapacity = 64;
  obs::set_flight_capacity(kCapacity);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < kNotes; ++i) {
        // Built in steps: GCC 12 flags the chained operator+ (-Wrestrict).
        std::string note = "t";
        note += std::to_string(t);
        note += " n";
        note += std::to_string(i);
        obs::flight_note(LogLevel::kDebug, note);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Each thread's ring keeps its newest `kCapacity` records; the snapshot
  // merges them in strictly increasing global seq order.
  const std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  EXPECT_EQ(records.size(), kThreads * kCapacity);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  }
}

TEST_F(ObsLogTest, JsonEscapeHandlesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("a\nb")), "a\\u000ab");
}

obs::RunManifest sample_manifest() {
  obs::RunManifest m;
  m.command = "distributed";
  m.timestamp = "2026-08-06T00:00:00Z";
  m.config = {{"tau", "4"}, {"in", "net \"x\".tgc"}, {"seed", "7"}};
  m.execution = {{"threads", "8"}, {"obs-out", "/tmp/run"}};
  return m;
}

TEST_F(ObsLogTest, ManifestHeaderLineIsSemanticOnlyAndDeterministic) {
  const obs::RunManifest m = sample_manifest();
  const std::string header = obs::manifest_header_line(m);
  EXPECT_EQ(header, obs::manifest_header_line(m));  // byte-stable

  // Declaration order must not matter: config is key-sorted on the wire.
  obs::RunManifest shuffled = m;
  std::swap(shuffled.config.front(), shuffled.config.back());
  EXPECT_EQ(obs::manifest_header_line(shuffled), header);

  // The embedded line carries build identity + semantic config only —
  // execution options and the timestamp would break trace byte-identity
  // across --threads / log levels, so they are sidecar-only.
  EXPECT_NE(header.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(header.find("\"command\":\"distributed\""), std::string::npos);
  EXPECT_NE(header.find("\"cfg_tau\":\"4\""), std::string::npos);
  EXPECT_NE(header.find("\"cfg_in\":\"net \\\"x\\\".tgc\""), std::string::npos);
  EXPECT_EQ(header.find("threads"), std::string::npos);
  EXPECT_EQ(header.find("timestamp"), std::string::npos);
  EXPECT_EQ(header.find("2026-08-06"), std::string::npos);

  const auto rec = obs::parse_jsonl_line(header);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("type"), "manifest");
  EXPECT_EQ(rec->text("cfg_tau"), "4");
  EXPECT_EQ(rec->text("command"), "distributed");
  EXPECT_FALSE(rec->text("tool_version").empty());
  EXPECT_FALSE(rec->text("git_sha").empty());
}

TEST_F(ObsLogTest, ManifestSidecarAddsTimestampAndExecutionOptions) {
  const obs::RunManifest m = sample_manifest();
  const std::string side = obs::manifest_sidecar_line(m);
  EXPECT_EQ(side, obs::manifest_sidecar_line(m));
  EXPECT_NE(side.find("\"timestamp\":\"2026-08-06T00:00:00Z\""),
            std::string::npos);
  EXPECT_NE(side.find("\"exec_threads\":\"8\""), std::string::npos);
  EXPECT_NE(side.find("\"exec_obs-out\":\"/tmp/run\""), std::string::npos);
  const auto rec = obs::parse_jsonl_line(side);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("cfg_seed"), "7");
  EXPECT_EQ(rec->text("exec_threads"), "8");
}

}  // namespace
}  // namespace tgc
