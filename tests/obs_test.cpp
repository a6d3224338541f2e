// Telemetry subsystem tests: shard merging across ThreadPool workers, phase
// scope nesting, JSONL round-trip through `tgcover report`, and the contract
// that matters most — telemetry never changes a schedule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc {
namespace {

namespace fs = std::filesystem;

core::Network small_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return core::prepare_network(
      gen::random_connected_udg(
          150, gen::side_for_average_degree(150, 1.0, 18.0), 1.0, rng),
      1.0);
}

// ---------------------------------------------------------------- Registry

TEST(ObsRegistry, CounterMergeAcrossThreads) {
  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  constexpr std::size_t kIncrements = 10000;

  util::ThreadPool pool(4);
  pool.parallel_for(0, kIncrements, [](std::size_t, unsigned) {
    obs::add(obs::CounterId::kMessages, 1);
    obs::add(obs::CounterId::kPayloadWords, 3);
    // kOther is the phase every worker finds and restores, so concurrent
    // scopes cannot leave attribution anywhere else.
    const obs::PhaseScope scope(obs::CostPhase::kOther);
  });

  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  // Every worker counted into its own shard; the snapshot merge must not
  // lose or double-count a single increment or scope.
  EXPECT_EQ(delta.get(obs::CounterId::kMessages), kIncrements);
  EXPECT_EQ(delta.get(obs::CounterId::kPayloadWords), 3 * kIncrements);
  EXPECT_EQ(delta.span(obs::CostPhase::kOther).count, kIncrements);
}

TEST(ObsRegistry, DisabledAddsAreDropped) {
  obs::set_enabled(false);
  const obs::Metrics before = obs::snapshot();
  obs::add(obs::CounterId::kMessages, 1000);
  const obs::Metrics delta = obs::snapshot() - before;
  EXPECT_EQ(delta.get(obs::CounterId::kMessages), 0u);
}

TEST(ObsRegistry, CounterAndSpanNamesAreStable) {
  // The JSONL schema and `tgcover report` key off these strings.
  EXPECT_EQ(obs::counter_name(obs::CounterId::kVptTests), "vpt_tests");
  EXPECT_EQ(obs::counter_name(obs::CounterId::kGf2Pivots), "gf2_pivots");
  EXPECT_EQ(obs::counter_name(obs::CounterId::kMessages), "messages");
  EXPECT_EQ(obs::cost_phase_name(obs::CostPhase::kVerdicts), "verdicts");
  EXPECT_EQ(obs::cost_phase_name(obs::CostPhase::kRepairWave), "repair");
  // A phase read back from a file may be out of range.
  EXPECT_EQ(obs::cost_phase_name(static_cast<obs::CostPhase>(99)), "other");
}

// ------------------------------------------------------------------- Spans

TEST(ObsSpan, NestingAndHistogram) {
  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  {
    const obs::PhaseScope verdicts(obs::CostPhase::kVerdicts);
    { const obs::PhaseScope mis(obs::CostPhase::kMis); }
  }

  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  EXPECT_EQ(delta.span(obs::CostPhase::kVerdicts).count, 1u);
  EXPECT_EQ(delta.span(obs::CostPhase::kMis).count, 1u);
}

TEST(ObsSpan, ToggleMidSpanNeverHalfRecords) {
  obs::set_enabled(false);
  const obs::Metrics before = obs::snapshot();
  {
    // Opened while disabled: enabling mid-scope must not record.
    const obs::PhaseScope scope(obs::CostPhase::kDeletion);
    obs::set_enabled(true);
  }
  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  EXPECT_EQ(delta.span(obs::CostPhase::kDeletion).count, 0u);
}

// ------------------------------------------------------------------- JSONL

TEST(ObsJsonl, ParsesFlatRecords) {
  const auto rec = obs::parse_jsonl_line(
      R"({"type":"round","round":3,"active":42,"ratio":0.5,"name":"x"})");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("type"), "round");
  EXPECT_EQ(rec->u64("round"), 3u);
  EXPECT_EQ(rec->u64("active"), 42u);
  EXPECT_DOUBLE_EQ(rec->number("ratio"), 0.5);
  EXPECT_EQ(rec->text("name"), "x");
  EXPECT_EQ(rec->u64("missing", 7), 7u);
  EXPECT_FALSE(rec->has("missing"));
}

TEST(ObsJsonl, RejectsMalformedLines) {
  EXPECT_FALSE(obs::parse_jsonl_line("").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1)").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a")").has_value());
}

TEST(ObsCollector, RoundTripThroughWriter) {
  obs::set_enabled(true);
  const core::Network net = small_network(7);
  core::DccConfig config;
  config.tau = 4;
  obs::RoundCollector collector;
  const core::ScheduleSummary s = [&] {
    const obs::RunScope scope({&collector});
    return core::run_dcc(net, config);
  }();
  collector.finalize(s.result.survivors);
  obs::set_enabled(false);

  ASSERT_EQ(collector.events().size(), s.result.per_round.size());
  for (std::size_t i = 0; i < collector.events().size(); ++i) {
    const obs::RoundEvent& ev = collector.events()[i];
    EXPECT_EQ(ev.round, i + 1);
    EXPECT_EQ(ev.candidates, s.result.per_round[i].candidates);
    EXPECT_EQ(ev.deleted, s.result.per_round[i].deleted);
  }
  ASSERT_FALSE(collector.events().empty());
  EXPECT_EQ(collector.events().back().active, s.result.survivors);

  std::ostringstream jsonl;
  collector.write_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::string line;
  std::size_t rounds = 0;
  std::size_t cost_records = 0;
  std::size_t cost_totals = 0;
  std::uint64_t per_round_tests = 0;
  std::optional<obs::JsonRecord> summary;
  std::map<std::uint64_t, obs::JsonRecord> round_records;
  std::map<std::uint64_t, obs::CostVec> round_cost;  // summed over phases
  const auto key_of = [](std::size_t i) {
    return std::string(obs::counter_name(static_cast<obs::CounterId>(i)));
  };
  while (std::getline(in, line)) {
    const auto rec = obs::parse_jsonl_line(line);
    ASSERT_TRUE(rec.has_value()) << line;
    const std::string type = rec->text("type");
    if (type == "round") {
      ++rounds;
      per_round_tests += rec->u64("vpt_tests");
      round_records.emplace(rec->u64("round"), *rec);
    } else if (type == "cost") {
      ++cost_records;
      obs::CostVec& sum = round_cost[rec->u64("round")];
      for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        sum.units[i] += rec->u64(key_of(i));
      }
    } else if (type == "cost_total") {
      ++cost_totals;
    } else {
      ASSERT_EQ(type, "summary");
      summary = *rec;
    }
  }
  ASSERT_TRUE(summary.has_value());
  // The stream interleaves per-phase logical-cost records with the rounds,
  // both cut from one snapshot pair: a round's counters are the sum of its
  // cost records.
  for (const auto& [round, rec] : round_records) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      EXPECT_EQ(rec.u64(key_of(i)), round_cost[round].units[i])
          << "round " << round << " " << key_of(i);
    }
  }
  EXPECT_GT(cost_records, 0u);
  EXPECT_GT(cost_totals, 0u);
  EXPECT_EQ(rounds, s.result.rounds);
  EXPECT_EQ(summary->u64("rounds"), s.result.rounds);
  EXPECT_EQ(summary->u64("survivors"), s.result.survivors);
  // The summary totals span the whole run, including the final fixpoint
  // round that found no candidates — so they dominate the per-round sum.
  EXPECT_GE(summary->u64("vpt_tests"), per_round_tests);
  EXPECT_GT(per_round_tests, 0u);
  EXPECT_EQ(summary->u64("vpt_tests"), s.result.vpt_tests);
}

// ----------------------------------------------------------- Determinism

TEST(ObsDeterminism, TelemetryNeverChangesTheSchedule) {
  const core::Network net = small_network(11);
  for (const unsigned threads : {1u, 2u}) {
    core::DccConfig plain;
    plain.tau = 4;
    plain.seed = 9;
    plain.num_threads = threads;
    obs::set_enabled(false);
    const core::ScheduleSummary baseline = core::run_dcc(net, plain);

    obs::set_enabled(true);
    obs::RoundCollector collector;
    const core::ScheduleSummary metered_run = [&] {
      const obs::RunScope scope({&collector});
      return core::run_dcc(net, plain);
    }();
    collector.finalize(metered_run.result.survivors);
    obs::set_enabled(false);

    EXPECT_EQ(baseline.result.active, metered_run.result.active)
        << "threads=" << threads;
    EXPECT_EQ(baseline.result.rounds, metered_run.result.rounds);
    ASSERT_EQ(baseline.result.per_round.size(),
              metered_run.result.per_round.size());
    for (std::size_t i = 0; i < baseline.result.per_round.size(); ++i) {
      EXPECT_EQ(baseline.result.per_round[i].candidates,
                metered_run.result.per_round[i].candidates);
      EXPECT_EQ(baseline.result.per_round[i].deleted,
                metered_run.result.per_round[i].deleted);
    }
  }
}

// ------------------------------------------------------------------- CLI

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = app::run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

class ObsCliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_obs_test_") + info->name());
    fs::create_directories(dir_);
    net_ = (dir_ / "net.tgc").string();
    sched_ = (dir_ / "sched.tgc").string();
    bundle_ = (dir_ / "run").string();
    jsonl_ = (dir_ / "run" / "metrics.jsonl").string();
  }
  void TearDown() override {
    obs::set_enabled(false);  // --obs-out leaves the runtime switch on
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::string net_;
  std::string sched_;
  std::string bundle_;
  std::string jsonl_;
};

TEST_F(ObsCliFixture, MetricsStreamFeedsReport) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "18", "--seed",
                 "3", "--out", net_.c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--obs-out", bundle_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("metrics.jsonl cost.jsonl"), std::string::npos) << out;
  ASSERT_TRUE(fs::exists(jsonl_));
  const std::string html = (dir_ / "r.html").string();

  // Positional form, on the whole bundle.
  ASSERT_EQ(run({"report", bundle_.c_str(), "--out", html.c_str()}, &out), 0)
      << out;
  EXPECT_NE(out.find("round"), std::string::npos);
  EXPECT_NE(out.find("summary:"), std::string::npos);
  EXPECT_NE(out.find("survivors"), std::string::npos);
  EXPECT_NE(out.find("view B"), std::string::npos);

  // --in form, on the one stream.
  ASSERT_EQ(run({"report", "--in", jsonl_.c_str(), "--out", html.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("summary:"), std::string::npos);

  // A corrupted line is skipped loudly and flips the exit code.
  {
    std::ofstream f(jsonl_, std::ios::app);
    f << "this is not json\n";
  }
  EXPECT_EQ(run({"report", jsonl_.c_str(), "--out", html.c_str()}, &out), 1)
      << out;
  EXPECT_NE(out.find("unreadable line"), std::string::npos) << out;
}

TEST_F(ObsCliFixture, ScheduleIdenticalWithAndWithoutMetrics) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "18", "--seed",
                 "5", "--out", net_.c_str()},
                &out),
            0)
      << out;
  const std::string plain = (dir_ / "plain.tgc").string();
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", plain.c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--obs-out", bundle_.c_str(), "--threads", "2"},
                &out),
            0)
      << out;

  std::ifstream a(plain, std::ios::binary), b(sched_, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str())
      << "telemetry or threading changed the schedule mask";
}

}  // namespace
}  // namespace tgc
