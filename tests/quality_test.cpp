// End-to-end tests of the coverage-quality auditor (DESIGN.md §15): the
// arming-perturbs-nothing contract (schedule masks and cost streams are
// byte-identical with `--obs quality` on or off, and the quality stream is
// byte-identical across thread counts), a repair run holding the
// Proposition 1 hole-diameter bound with positive margin, a synthetic
// over-deletion driving the auditor into a recorded bound_violation, the
// bundle loader + byte-deterministic `tgcover report` quality sections, and
// the fleet integration (per-run summary columns, the bundle's quality
// stream, and the --resume armed/unarmed consistency refusal).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/cli.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/quality_audit.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/quality.hpp"

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

class QualityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_quality_test_") + info->name());
    fs::create_directories(dir_);
    setenv("TGC_RUN_TIMESTAMP", "2026-08-07T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void generate(const char* nodes, const char* seed) {
    ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", nodes, "--degree",
                   "10", "--seed", seed, "--out", net_.c_str()}),
              0);
  }

  fs::path dir_;
  std::string net_;
};

TEST_F(QualityFixture, ArmingLeavesMaskAndCostStreamByteIdentical) {
  generate("80", "7");
  const std::string mask_q = (dir_ / "mask-q.tgc").string();
  const std::string mask_p = (dir_ / "mask-p.tgc").string();
  const fs::path q = dir_ / "q";
  const fs::path p = dir_ / "p";
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask_q.c_str(), "--obs-out", q.string().c_str(), "--obs",
                 "quality"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("quality.jsonl"), std::string::npos) << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask_p.c_str(), "--obs-out", p.string().c_str()}),
            0);
  // The probe re-enters counted kernels under a CostAuditScope; the gated
  // cost stream and the schedule must not move by a single byte.
  EXPECT_EQ(read_file(mask_q), read_file(mask_p));
  EXPECT_EQ(read_file((q / "cost.jsonl").string()),
            read_file((p / "cost.jsonl").string()));

  const Bundle load = load_bundle((q / "quality.jsonl").string());
  ASSERT_TRUE(load.error.empty()) << load.error;
  EXPECT_TRUE(load.manifest.has_value());
  EXPECT_TRUE(load.has("quality_summary"));
  EXPECT_TRUE(load.has("quality_round"));
  ASSERT_TRUE(load.has("quality_header"));
  // rs = rc = 1 -> gamma = 1: a finite Proposition 1 bound.
  EXPECT_EQ(load.of("quality_header").front().u64("bound_finite"), 1u);
}

TEST_F(QualityFixture, QualityStreamIsThreadCountInvariant) {
  generate("80", "5");
  const fs::path q1 = dir_ / "q1";
  const fs::path q2 = dir_ / "q2";
  const std::string m1 = (dir_ / "m1.tgc").string();
  const std::string m2 = (dir_ / "m2.tgc").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4",
                 "--threads", "1", "--out", m1.c_str(), "--obs-out",
                 q1.string().c_str(), "--obs", "quality"}),
            0);
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4",
                 "--threads", "2", "--out", m2.c_str(), "--obs-out",
                 q2.string().c_str(), "--obs", "quality"}),
            0);
  EXPECT_EQ(read_file(m1), read_file(m2));
  EXPECT_EQ(read_file((q1 / "quality.jsonl").string()),
            read_file((q2 / "quality.jsonl").string()));
}

TEST_F(QualityFixture, LossyAsyncRepairRunHoldsTheBoundWithMargin) {
  // A lossy async run and a crash-repair pass on the same network: both must
  // record a strictly positive minimum bound margin and zero violations —
  // Fig. 6's claim as a continuously checked invariant. Rs = 0.7 puts
  // γ = 1/0.7 ≈ 1.43 in the (2·sin(π/4), 2] band where the paper bound is
  // the finite, non-trivial (τ−2)·Rc = 2 (at γ ≤ √2 blanket coverage is
  // guaranteed instead and the bound collapses to 0). Much denser than the
  // other fixtures: repair can only re-certify after losing awake survivors
  // when their neighbourhoods still carry enough short cycles (cf. the
  // RepairFixture density, ~degree 30).
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "200", "--degree",
                 "28", "--seed", "3", "--out", net_.c_str()}),
            0);
  const std::string mask = (dir_ / "mask.tgc").string();
  const std::string q_lossy = (dir_ / "q-lossy").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4", "--async",
                 "--loss", "0.1", "--rs", "0.7", "--out", mask.c_str(),
                 "--obs-out", q_lossy.c_str(), "--obs", "quality"}),
            0);
  const Bundle lossy = load_bundle(q_lossy);
  ASSERT_TRUE(lossy.error.empty()) << lossy.error;
  ASSERT_TRUE(lossy.has("quality_summary"));
  const obs::JsonRecord& lossy_summary = lossy.of("quality_summary").back();
  EXPECT_EQ(lossy_summary.u64("violations"), 0u);
  EXPECT_GT(lossy_summary.number("bound_margin"), 0.0);
  EXPECT_GE(lossy_summary.u64("rounds_sampled"), 2u);  // round 0 + rounds

  // Crash a handful of internal survivors and audit the repair waves.
  // Boundary-cycle nodes are powered infrastructure (cf. lifetime's energy
  // model) — losing one severs CB itself and no certificate can exist.
  const core::Network net =
      core::prepare_network(io::load_deployment(net_), 1.0);
  const std::vector<bool> active = io::load_mask(mask);
  std::vector<bool> failed(active.size(), false);
  std::size_t crashed = 0;
  for (std::size_t v = 0; v < active.size() && crashed < 3; ++v) {
    if (active[v] && net.internal[v]) {
      failed[v] = true;
      ++crashed;
    }
  }
  ASSERT_EQ(crashed, 3u);
  const std::string failed_path = (dir_ / "failed.tgc").string();
  io::save_mask(failed, failed_path);
  const std::string repaired = (dir_ / "repaired.tgc").string();
  const std::string q_repair = (dir_ / "q-repair").string();
  std::string out;
  ASSERT_EQ(run({"repair", "--in", net_.c_str(), "--schedule", mask.c_str(),
                 "--failed", failed_path.c_str(), "--out", repaired.c_str(),
                 "--rs", "0.7", "--obs-out", q_repair.c_str(), "--obs",
                 "quality"},
                &out),
            0)
      << out;
  const Bundle repair = load_bundle(q_repair);
  ASSERT_TRUE(repair.error.empty()) << repair.error;
  ASSERT_TRUE(repair.has("quality_summary"));
  EXPECT_EQ(repair.of("quality_summary").back().u64("violations"), 0u);
  EXPECT_GT(repair.of("quality_summary").back().number("bound_margin"), 0.0);
}

TEST_F(QualityFixture, OverDeletionRecordsABoundViolationEvent) {
  // Synthetic SLO breach: deactivate every node in a disk wider than the
  // (τ−2)·Rc = 2 bound around the target center. The auditor must flag the
  // resulting hole as a violation, count it in the summary, and emit a
  // bound_violation event line in the stream.
  GenSpec g;
  g.nodes = 150;
  g.degree = 10.0;
  g.seed = 3;
  const core::Network net = core::prepare_network(generate_deployment(g), 1.0);
  // rs = 0.6: γ ≈ 1.67, a finite (τ−2)·Rc bound, not blanket coverage.
  const std::unique_ptr<obs::QualityAuditor> auditor =
      make_quality_auditor(net, 4, 0.6);
  ASSERT_NE(auditor, nullptr);
  EXPECT_DOUBLE_EQ(auditor->config().hole_diameter_bound, 2.0);

  const std::size_t n = net.dep.graph.num_vertices();
  const geom::Point center{(net.target.xmin + net.target.xmax) / 2.0,
                           (net.target.ymin + net.target.ymax) / 2.0};
  std::vector<bool> all_awake(n, true);
  std::vector<bool> cratered(n, true);
  std::size_t killed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (geom::dist(net.dep.positions[v], center) < 2.2) {
      cratered[v] = false;
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);
  auditor->end_round(all_awake);  // round 1: intact, inside the bound
  auditor->end_round(cratered);   // round 2: the crater
  auditor->finalize(cratered);

  const obs::QualitySummary& s = auditor->summary();
  EXPECT_GE(s.violations, 1u);
  EXPECT_LT(s.min_bound_margin, 0.0);
  EXPECT_GT(s.max_hole_diameter, 2.0);

  std::ostringstream stream;
  obs::write_quality_jsonl(*auditor, stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("\"type\":\"bound_violation\""), std::string::npos);
  EXPECT_NE(text.find("\"violation\":1"), std::string::npos);
  EXPECT_NE(text.find("\"excess\":"), std::string::npos);
}

TEST_F(QualityFixture, DashboardRendersByteIdenticallyAndReportFuses) {
  generate("80", "7");
  const std::string mask = (dir_ / "mask.tgc").string();
  const fs::path bundle = dir_ / "run";
  const std::string quality = (bundle / "quality.jsonl").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask.c_str(), "--obs-out", bundle.string().c_str(), "--obs",
                 "quality"}),
            0);

  // The quality stream alone renders its sections, byte-identically.
  const std::string h1 = (dir_ / "q1.html").string();
  const std::string h2 = (dir_ / "q2.html").string();
  std::string out;
  ASSERT_EQ(run({"report", quality.c_str(), "--out", h1.c_str()}, &out), 0)
      << out;
  ASSERT_EQ(run({"report", quality.c_str(), "--out", h2.c_str()}), 0);
  const std::string html = read_file(h1);
  EXPECT_EQ(html, read_file(h2));
  EXPECT_NE(html.find("Holes vs bound"), std::string::npos);
  EXPECT_NE(html.find("k-coverage"), std::string::npos);
  EXPECT_NE(html.find("min coverage fraction"), std::string::npos);

  // The whole bundle puts the same sections on the run dashboard.
  const std::string report = (dir_ / "report.html").string();
  ASSERT_EQ(run({"report", bundle.string().c_str(), "--out", report.c_str()},
                &out),
            0)
      << out;
  const std::string fused = read_file(report);
  EXPECT_NE(fused.find("Round timeline"), std::string::npos);
  EXPECT_NE(fused.find("Holes vs bound"), std::string::npos);
  EXPECT_NE(fused.find("k-coverage"), std::string::npos);
}

TEST_F(QualityFixture, LoaderNamesMissingHeaderAndUnreadableFiles) {
  const Bundle absent = load_bundle((dir_ / "absent.jsonl").string());
  EXPECT_NE(absent.error.find("cannot open"), std::string::npos);
  const std::string headerless = (dir_ / "headerless.jsonl").string();
  {
    std::ofstream f(headerless);
    f << "{\"type\":\"quality_round\",\"round\":1}\n" << "not json\n";
  }
  // Rounds without their quality_header render nothing: a named refusal.
  const Bundle bad = load_bundle(headerless);
  EXPECT_EQ(bad.skipped, 1u);
  EXPECT_NE(report_refusal(bad).find("no quality_header"), std::string::npos);
  std::string out;
  EXPECT_EQ(run({"report", headerless.c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("headerless.jsonl"), std::string::npos) << out;
}

// ------------------------------------------------------------------- fleet

class FleetQualityFixture : public QualityFixture {
 protected:
  void SetUp() override {
    QualityFixture::SetUp();
    sink_ = (dir_ / "fleet.jsonl").string();
    obs_ = (dir_ / "obs").string();
    qsink_ = (dir_ / "obs" / "quality.jsonl").string();
  }
  std::string sink_;
  std::string obs_;
  std::string qsink_;
};

TEST_F(FleetQualityFixture, ArmedCellsStreamSummariesAndRecordColumns) {
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--obs-out", obs_.c_str(), "--obs", "quality", "--out",
                 sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("quality.jsonl"), std::string::npos) << out;
  const Bundle sink = load_bundle(sink_);
  ASSERT_EQ(sink.of("run").size(), 2u);
  for (const obs::JsonRecord& rec : sink.of("run")) {
    EXPECT_TRUE(rec.has("min_coverage_fraction"));
    EXPECT_TRUE(rec.has("max_hole_diameter"));
    EXPECT_TRUE(rec.has("bound_margin"));
    EXPECT_GT(rec.number("min_coverage_fraction"), 0.0);
  }
  // The bundle's quality stream: one manifest header plus one run-tagged
  // quality_summary per cell.
  std::ifstream in(qsink_);
  std::string line;
  std::size_t manifests = 0, summaries = 0;
  std::set<std::uint64_t> runs_seen;
  while (std::getline(in, line)) {
    const auto rec = obs::parse_jsonl_line(line);
    ASSERT_TRUE(rec.has_value()) << line;
    if (rec->text("type") == "manifest") ++manifests;
    if (rec->text("type") == "quality_summary") {
      ++summaries;
      runs_seen.insert(rec->u64("run"));
    }
  }
  EXPECT_EQ(manifests, 1u);
  EXPECT_EQ(summaries, 2u);
  EXPECT_EQ(runs_seen, (std::set<std::uint64_t>{0, 1}));

  // Unarmed campaign: no quality columns, identical schedule digests.
  const std::string plain = (dir_ / "plain.jsonl").string();
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", plain.c_str()},
                &out),
            0)
      << out;
  const Bundle off = load_bundle(plain);
  ASSERT_EQ(off.of("run").size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(off.of("run")[i].has("min_coverage_fraction"));
    EXPECT_FALSE(off.of("run")[i].has("bound_margin"));
    EXPECT_EQ(off.of("run")[i].text("schedule_digest"),
              sink.of("run")[i].text("schedule_digest"));
  }
}

TEST_F(FleetQualityFixture, ResumeRefusesArmedUnarmedMismatch) {
  // An armed campaign, truncated mid-flight...
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--obs-out", obs_.c_str(), "--obs", "quality", "--out",
                 sink_.c_str()}),
            0);
  {
    std::ifstream in(sink_);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);  // manifest + 2 runs
    std::ofstream trunc(sink_, std::ios::trunc);
    trunc << lines[0] << "\n" << lines[1] << "\n";
  }
  // ...must refuse to resume without --obs quality...
  std::string out;
  EXPECT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--out", sink_.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("quality columns"), std::string::npos) << out;
  // ...and complete cleanly when the arming matches again.
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--obs-out", obs_.c_str(), "--obs", "quality",
                 "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("1 of 2 cells already ok"), std::string::npos) << out;

  // The mirror case: an unarmed sink refuses an --obs quality resume.
  const std::string plain = (dir_ / "plain.jsonl").string();
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", plain.c_str()}),
            0);
  {
    std::ifstream in(plain);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    std::ofstream trunc(plain, std::ios::trunc);
    trunc << lines[0] << "\n" << lines[1] << "\n";
  }
  EXPECT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--obs-out", obs_.c_str(), "--obs", "quality",
                 "--out", plain.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no quality columns"), std::string::npos) << out;
}

}  // namespace
}  // namespace tgc::app
