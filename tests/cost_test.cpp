// Logical cost model tests: the machine-independent work-unit layer that
// `tgcover report` and the bench gate (tools/bench_gate.py) reason about.
//
//  * CostVec arithmetic, the one phase scope (obs::PhaseScope) against every
//    collector it feeds, RoundCollector per-phase round profiles;
//  * the acceptance contract: cost.jsonl streams are byte-identical across
//    thread counts and log levels on the same build;
//  * `tgcover report` / the bundle loader on malformed inputs: missing
//    files, truncated final lines, blank lines, duplicate round ids, and
//    manifest-only files are clean named errors, never crashes or silent
//    skips;
//  * HTML escaping of user-controlled strings in the report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/flight.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/obs/trace.hpp"

namespace tgc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- CostVec

TEST(CostVec, ArithmeticAndZero) {
  obs::CostVec a;
  EXPECT_TRUE(a.is_zero());
  a.units[static_cast<std::size_t>(obs::CounterId::kVptTests)] = 3;
  a.units[static_cast<std::size_t>(obs::CounterId::kMessages)] = 7;
  EXPECT_FALSE(a.is_zero());

  obs::CostVec b = a;
  b += a;
  EXPECT_EQ(b.get(obs::CounterId::kVptTests), 6u);
  EXPECT_EQ(b.get(obs::CounterId::kMessages), 14u);
  const obs::CostVec d = b - a;
  EXPECT_TRUE(d == a);
}

TEST(CostVec, LogicalCostExcludesSubsetsAndPayload) {
  // vpt_deletable / vpt_vetoed are subsets of vpt_tests, messages_lost a
  // subset of messages, payload_words a size not a count — none of them may
  // double-count into the scalar.
  obs::CostVec v;
  const auto set = [&v](obs::CounterId id, std::uint64_t n) {
    v.units[static_cast<std::size_t>(id)] = n;
  };
  set(obs::CounterId::kVptTests, 10);
  set(obs::CounterId::kVptDeletable, 6);
  set(obs::CounterId::kVptVetoed, 4);
  set(obs::CounterId::kBfsExpansions, 100);
  set(obs::CounterId::kHortonCandidates, 1000);
  set(obs::CounterId::kGf2Pivots, 10000);
  set(obs::CounterId::kMessages, 5);
  set(obs::CounterId::kPayloadWords, 99999);
  set(obs::CounterId::kRepairWaves, 2);
  set(obs::CounterId::kMessagesLost, 3);
  set(obs::CounterId::kRetransmissions, 1);
  EXPECT_EQ(obs::logical_cost(v), 10u + 100u + 1000u + 10000u + 5u + 1u + 2u);
}

// ---------------------------------------------------------- Phase scopes

TEST(CostPhase, ScopeAttributesAndRestores) {
  obs::set_enabled(true);
  const obs::CostSnapshot before = obs::cost_snapshot();
  ASSERT_EQ(obs::current_phase(), obs::CostPhase::kOther);
  {
    const obs::PhaseScope verdicts(obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 2);
    {
      // Nested scopes (repair driving the scheduler) override and restore.
      const obs::PhaseScope mis(obs::CostPhase::kMis);
      EXPECT_EQ(obs::current_phase(), obs::CostPhase::kMis);
      obs::add(obs::CounterId::kBfsExpansions, 5);
    }
    EXPECT_EQ(obs::current_phase(), obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 1);
  }
  EXPECT_EQ(obs::current_phase(), obs::CostPhase::kOther);
  const obs::CostSnapshot delta = obs::cost_snapshot() - before;
  obs::set_enabled(false);

  EXPECT_EQ(delta.phase(obs::CostPhase::kVerdicts)
                .get(obs::CounterId::kVptTests),
            3u);
  EXPECT_EQ(delta.phase(obs::CostPhase::kMis)
                .get(obs::CounterId::kBfsExpansions),
            5u);
  EXPECT_EQ(delta.phase(obs::CostPhase::kOther)
                .get(obs::CounterId::kVptTests),
            0u);
  EXPECT_EQ(delta.total().get(obs::CounterId::kVptTests), 3u);
}

TEST(CostPhase, OneScopeFeedsEveryCollector) {
  // dcc_repair's shape: a clockless wave scope around a scheduler phase that
  // carries the round substrate's clock, which advances inside it.
  obs::set_enabled(true);
  obs::trace_begin();
  obs::profile_begin(1);
  const obs::Metrics before = obs::snapshot();
  std::size_t clock = 2;
  {
    const obs::PhaseScope wave(obs::CostPhase::kRepairWave);
    obs::add(obs::CounterId::kRepairWaves, 1);
    {
      const obs::PhaseScope verdicts(obs::CostPhase::kVerdicts, &clock);
      obs::add(obs::CounterId::kVptTests, 3);
      clock = 5;
    }
    EXPECT_EQ(obs::current_phase(), obs::CostPhase::kRepairWave);
  }
  EXPECT_EQ(obs::current_phase(), obs::CostPhase::kOther);
  const obs::Metrics delta = obs::snapshot() - before;
  const std::vector<obs::TraceEvent> trace = obs::trace_end();
  const obs::ProfileData profile = obs::profile_end();
  obs::set_enabled(false);

  // Cost attribution: each counter lands in its own phase.
  const auto units = [&](obs::CostPhase p, obs::CounterId id) {
    return delta.cost.phase(p).get(id);
  };
  EXPECT_EQ(units(obs::CostPhase::kRepairWave, obs::CounterId::kRepairWaves),
            1u);
  EXPECT_EQ(units(obs::CostPhase::kVerdicts, obs::CounterId::kVptTests), 3u);
  EXPECT_EQ(delta.get(obs::CounterId::kRepairWaves), 1u);
  EXPECT_EQ(delta.get(obs::CounterId::kVptTests), 3u);

  // Timers: one run each, the outer scope inclusive of the inner.
  const obs::SpanTotals& wave = delta.span(obs::CostPhase::kRepairWave);
  const obs::SpanTotals& verdicts = delta.span(obs::CostPhase::kVerdicts);
  EXPECT_EQ(wave.count, 1u);
  EXPECT_EQ(verdicts.count, 1u);
  EXPECT_GE(wave.sum_ns, verdicts.sum_ns);

  // Trace: only the clocked scope, stamped at open and at close.
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, obs::TraceKind::kPhaseBegin);
  EXPECT_EQ(trace[0].type, 0u);
  EXPECT_EQ(trace[0].sim, 2.0);
  EXPECT_EQ(trace[1].kind, obs::TraceKind::kPhaseEnd);
  EXPECT_EQ(trace[1].type, 0u);
  EXPECT_EQ(trace[1].sim, 5.0);

  // Profiler: a phase instant at every transition, the restores included.
  std::vector<std::uint64_t> phases;
  for (const obs::WorkerProfile& w : profile.workers) {
    for (const obs::ProfileEvent& ev : w.events) {
      if (ev.kind == obs::ProfKind::kPhase) phases.push_back(ev.value);
    }
  }
  EXPECT_EQ(phases, (std::vector<std::uint64_t>{4, 0, 4, 5}));
}

TEST(RoundCollector, RoundProfilesAndTotals) {
  obs::set_enabled(true);
  obs::RoundCollector collector;
  collector.begin_round();
  {
    const obs::PhaseScope scope(obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 4);
  }
  std::vector<bool> awake(10, true);
  awake[3] = false;
  collector.end_round(/*round=*/1, awake, /*candidates=*/4, /*deleted=*/1);
  collector.begin_round();
  {
    const obs::PhaseScope scope(obs::CostPhase::kDeletion);
    obs::add(obs::CounterId::kBfsExpansions, 9);
  }
  awake[7] = false;
  collector.end_round(/*round=*/2, awake, /*candidates=*/1, /*deleted=*/1);
  collector.finalize(/*survivors=*/8);
  // Work after finalize must not leak into the frozen totals.
  obs::add(obs::CounterId::kVptTests, 100);
  obs::set_enabled(false);

  const std::vector<obs::RoundEvent>& events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].round, 1u);
  EXPECT_EQ(events[0].active, 9u);  // counted from the awake mask
  EXPECT_EQ(events[1].active, 8u);
  EXPECT_EQ(events[0]
                .delta.cost.phase(obs::CostPhase::kVerdicts)
                .get(obs::CounterId::kVptTests),
            4u);
  EXPECT_TRUE(
      events[0].delta.cost.phase(obs::CostPhase::kDeletion).is_zero());
  EXPECT_EQ(events[1]
                .delta.cost.phase(obs::CostPhase::kDeletion)
                .get(obs::CounterId::kBfsExpansions),
            9u);
  EXPECT_EQ(collector.totals().get(obs::CounterId::kVptTests), 4u);
  EXPECT_EQ(collector.totals().get(obs::CounterId::kBfsExpansions), 9u);
}

// ---------------------------------------------------------------- Fixture

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = app::run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class CostCliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_cost_test_") + info->name());
    fs::create_directories(dir_);
    setenv("TGC_RUN_TIMESTAMP", "2026-08-06T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
  }
  void TearDown() override {
    unsetenv("TGC_RUN_TIMESTAMP");
    obs::set_enabled(false);
    obs::reset_logging();
    obs::set_flight_capacity(0);
    fs::remove_all(dir_);
  }

  void make_network() {
    std::string out;
    ASSERT_EQ(run({"generate", "--nodes", "120", "--degree", "18", "--seed",
                   "3", "--out", net_.c_str()},
                  &out),
              0)
        << out;
  }

  /// Runs `schedule` with its bundle in its own run directory and returns
  /// that directory.
  std::string make_run(const std::string& name, const char* seed,
                       std::initializer_list<const char*> extra = {}) {
    const fs::path rd = dir_ / name;
    fs::create_directories(rd);
    const std::string mask = (rd / "sched.tgc").string();
    std::vector<const char*> argv{"schedule", "--in",  net_.c_str(),
                                  "--seed",   seed,    "--out",
                                  mask.c_str(),        "--obs-out",
                                  rd.c_str()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::string out;
    std::vector<const char*> full{"tgcover"};
    full.insert(full.end(), argv.begin(), argv.end());
    std::ostringstream os;
    const int rc =
        app::run_cli(static_cast<int>(full.size()), full.data(), os);
    EXPECT_EQ(rc, 0) << os.str();
    return rd.string();
  }

  fs::path dir_;
  std::string net_;
};

// ---------------------------------------- Acceptance: stream determinism

TEST_F(CostCliFixture, CostStreamIdenticalAcrossThreadsAndLogLevels) {
  make_network();
  const std::string a = (dir_ / "a").string();
  const std::string b = (dir_ / "b").string();
  const std::string c = (dir_ / "c").string();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sa.tgc").string().c_str(), "--obs-out", a.c_str(),
                 "--threads", "1", "--log-level", "warn"},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sb.tgc").string().c_str(), "--obs-out", b.c_str(),
                 "--threads", "4", "--log-level", "warn"},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sc.tgc").string().c_str(), "--obs-out", c.c_str(),
                 "--threads", "2", "--log-level", "debug", "--flight", "64",
                 "--log-out", (dir_ / "c.log").string().c_str()},
                &out),
            0)
      << out;

  const std::string bytes_a = read_file(fs::path(a) / "cost.jsonl");
  EXPECT_FALSE(bytes_a.empty());
  // The whole file — embedded manifest header included — must agree: the
  // header carries only semantic config, never threads or log options.
  EXPECT_EQ(bytes_a, read_file(fs::path(b) / "cost.jsonl"))
      << "thread count leaked into the stream";
  EXPECT_EQ(bytes_a, read_file(fs::path(c) / "cost.jsonl"))
      << "log level leaked into the stream";
  EXPECT_NE(bytes_a.find("\"type\":\"cost\""), std::string::npos);
  EXPECT_NE(bytes_a.find("\"type\":\"cost_total\""), std::string::npos);
  EXPECT_NE(bytes_a.find("\"logical_cost\":"), std::string::npos);
}

TEST_F(CostCliFixture, MetricsStreamCarriesCostRecordsPerPhase) {
  make_network();
  const std::string rd = make_run("m", "1");
  const app::Bundle log =
      app::load_bundle((fs::path(rd) / "metrics.jsonl").string());
  ASSERT_TRUE(log.error.empty()) << log.error;
  ASSERT_TRUE(log.has("round"));
  const std::vector<app::CostRow> costs = app::cost_rows(log, "cost");
  const std::vector<app::CostRow> totals = app::cost_rows(log, "cost_total");
  ASSERT_FALSE(costs.empty());
  ASSERT_FALSE(totals.empty());

  // Per-round cost records sum (with the post-round tail) to the totals.
  std::uint64_t per_round = 0;
  for (const app::CostRow& c : costs) per_round += c.logical_cost;
  std::uint64_t total = 0;
  for (const app::CostRow& c : totals) total += c.logical_cost;
  EXPECT_GE(total, per_round);
  EXPECT_GT(per_round, 0u);

  // The verdict phase did the VPT work.
  bool saw_verdicts = false;
  for (const app::CostRow& c : totals) {
    if (c.phase == "verdicts") {
      saw_verdicts = true;
      EXPECT_GT(c.vec.get(obs::CounterId::kVptTests), 0u);
    }
  }
  EXPECT_TRUE(saw_verdicts);
}

TEST_F(CostCliFixture, ReportEscapesHostilePathsAndTitles) {
  // The network lives under a directory whose name carries every character
  // the HTML layer must escape; the path reaches the report through the
  // cfg_in manifest value and must land in the provenance table escaped.
  const fs::path evil = dir_ / "net <&\"> dir";
  fs::create_directories(evil);
  net_ = (evil / "net.tgc").string();
  make_network();
  const std::string rd = make_run("run", "1");
  const std::string html = (dir_ / "rep.html").string();
  std::string out;
  ASSERT_EQ(run({"report", rd.c_str(), "--out", html.c_str(), "--title",
                 "rep <&\"> title"},
                &out),
            0)
      << out;
  const std::string doc = read_file(html);
  EXPECT_NE(doc.find("rep &lt;&amp;&quot;&gt; title"), std::string::npos);
  EXPECT_NE(doc.find("net &lt;&amp;&quot;&gt; dir"), std::string::npos);
  EXPECT_EQ(doc.find("<&\">"), std::string::npos)
      << "unescaped user-controlled string reached the report";
  EXPECT_NE(doc.find("Logical cost timeline"), std::string::npos);
  EXPECT_NE(doc.find("Logical cost by phase"), std::string::npos);
}

// ------------------------------------------------- round-log edge cases

class RoundLogEdgeFixture : public CostCliFixture {
 protected:
  std::string write_lines(const std::string& name,
                          const std::vector<std::string>& lines,
                          bool final_newline = true) {
    const std::string path = (dir_ / name).string();
    std::ofstream f(path, std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      f << lines[i];
      if (i + 1 < lines.size() || final_newline) f << "\n";
    }
    return path;
  }
  std::string html() const { return (dir_ / "r.html").string(); }
};

TEST_F(RoundLogEdgeFixture, MissingFileIsANamedErrorNotACrash) {
  const std::string path = (dir_ / "absent.jsonl").string();
  const app::Bundle log = app::load_bundle(path);
  EXPECT_FALSE(log.error.empty());
  EXPECT_NE(log.error.find("absent.jsonl"), std::string::npos);

  std::string out;
  EXPECT_EQ(run({"report", path.c_str(), "--out", html().c_str()}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("absent.jsonl"), std::string::npos) << out;
}

TEST_F(RoundLogEdgeFixture, TruncatedFinalLineIsSkippedLoudly) {
  const std::string path = write_lines(
      "trunc.jsonl",
      {R"({"type":"round","round":1,"active":10,"deleted":1})",
       R"({"type":"round","round":2,"act)"},
      /*final_newline=*/false);
  const app::Bundle log = app::load_bundle(path);
  EXPECT_TRUE(log.error.empty());
  EXPECT_EQ(log.of("round").size(), 1u);
  EXPECT_EQ(log.skipped, 1u);
  ASSERT_FALSE(log.notes.empty());

  std::string out;
  EXPECT_EQ(run({"report", path.c_str(), "--out", html().c_str()}, &out), 1)
      << out;
}

TEST_F(RoundLogEdgeFixture, BlankLinesAreSkippedLoudly) {
  const std::string path = write_lines(
      "blank.jsonl", {R"({"type":"round","round":1,"active":10})", "",
                      R"({"type":"round","round":2,"active":9})", ""});
  const app::Bundle log = app::load_bundle(path);
  EXPECT_TRUE(log.error.empty());
  EXPECT_EQ(log.of("round").size(), 2u);
  EXPECT_EQ(log.skipped, 2u);

  std::string out;
  EXPECT_EQ(run({"report", path.c_str(), "--out", html().c_str()}, &out), 1)
      << out;
}

TEST_F(RoundLogEdgeFixture, DuplicateRoundIdsAreDroppedLoudly) {
  const std::string path = write_lines(
      "dup.jsonl", {R"({"type":"round","round":1,"active":10,"deleted":1})",
                    R"({"type":"round","round":1,"active":10,"deleted":1})",
                    R"({"type":"round","round":2,"active":9,"deleted":1})"});
  const app::Bundle log = app::load_bundle(path);
  EXPECT_TRUE(log.error.empty());
  const std::vector<app::RoundRow> rows = app::round_rows(log);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].round, 1u);
  EXPECT_EQ(rows[1].round, 2u);
  EXPECT_EQ(log.skipped, 1u);
  bool named = false;
  for (const std::string& note : log.notes) {
    if (note.find("round") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named);

  std::string out;
  EXPECT_EQ(run({"report", path.c_str(), "--out", html().c_str()}, &out), 1)
      << out;
}

TEST_F(RoundLogEdgeFixture, ManifestOnlyFileIsACleanError) {
  const std::string path = write_lines(
      "manifest_only.jsonl",
      {R"({"type":"manifest","command":"schedule","cfg_tau":"4"})"});
  const app::Bundle log = app::load_bundle(path);
  EXPECT_TRUE(log.error.empty());
  ASSERT_TRUE(log.manifest.has_value());
  EXPECT_TRUE(log.records.empty());
  EXPECT_EQ(log.skipped, 0u);  // the manifest itself is never "skipped"

  std::string out;
  EXPECT_EQ(run({"report", path.c_str(), "--out", html().c_str()}, &out), 1)
      << out;
  EXPECT_NE(out.find("manifest only"), std::string::npos) << out;
}

TEST_F(RoundLogEdgeFixture, RunBundlePrefersEmbeddedManifestConfig) {
  make_network();
  const std::string rd = make_run("a", "1");
  const app::Bundle bundle = app::load_bundle(rd);
  ASSERT_TRUE(bundle.error.empty()) << bundle.error;
  EXPECT_TRUE(bundle.manifest.has_value());
  EXPECT_EQ(bundle.config.at("command"), "schedule");
  EXPECT_EQ(bundle.config.at("cfg_seed"), "1");
  // Execution detail must never leak into the comparable identity.
  for (const auto& [key, value] : bundle.config) {
    EXPECT_EQ(key.find("threads"), std::string::npos) << key;
    EXPECT_EQ(key.find("obs"), std::string::npos) << key;
  }
  // metrics.jsonl supersedes cost.jsonl: each cost record loads once.
  const app::Bundle metrics_only =
      app::load_bundle((fs::path(rd) / "metrics.jsonl").string());
  EXPECT_EQ(bundle.of("cost").size(), metrics_only.of("cost").size());
}

TEST_F(RoundLogEdgeFixture, RunBundleNamesEmptyDirectories) {
  const fs::path empty = dir_ / "empty_run";
  fs::create_directories(empty);
  const app::Bundle bundle = app::load_bundle(empty.string());
  EXPECT_FALSE(bundle.error.empty());
  EXPECT_NE(bundle.error.find("empty_run"), std::string::npos);
}

}  // namespace
}  // namespace tgc
