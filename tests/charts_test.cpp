// Unit tests of the shared app/charts SVG builders (stacked/grouped bars,
// line charts, heatmaps, sparklines) and of the fleet sink loader: hostile
// strings stay escaped, every builder is byte-deterministic, and a sink
// survives the round trip through writer → loader, including a truncated
// final line from a killed campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/app/html.hpp"

namespace tgc::app {
namespace {

namespace fs = std::filesystem;

const std::string kHostile = "<script>alert(\"x&y\")</script>";

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

charts::BarSlot slot(std::uint64_t id, double a, double b) {
  charts::BarSlot s;
  s.id = id;
  s.segs.push_back({"s1", a, kHostile});
  s.segs.push_back({"s2", b, "plain"});
  return s;
}

// ------------------------------------------------------------- escaping

TEST(Charts, StackedBarsEscapeHostileTitles) {
  std::ostringstream out;
  charts::stacked_bars(out, kHostile, {{"c1", kHostile}},
                       {slot(1, 2.0, 3.0), slot(2, 0.0, 1.0)});
  const std::string svg = out.str();
  EXPECT_FALSE(contains(svg, "<script>"));
  EXPECT_TRUE(contains(svg, "&lt;script&gt;"));
  EXPECT_TRUE(contains(svg, "&quot;x&amp;y&quot;"));
}

TEST(Charts, LineChartEscapesHostileTitlesAndLabels) {
  charts::LineChartSpec spec;
  spec.aria_label = kHostile;
  spec.legend = {{"c1", kHostile}};
  spec.slot_ids = {1, 2, 3};
  charts::LineSeries line;
  line.values = {1.0, 2.0, 3.0};
  line.titles = {kHostile, kHostile, kHostile};
  spec.lines.push_back(line);
  charts::BarSeries bars;
  bars.values = {0.5, 1.5, 0.0};
  bars.titles = {kHostile, "t", "t"};
  spec.bars.push_back(bars);
  std::ostringstream out;
  charts::line_chart(out, spec);
  EXPECT_FALSE(contains(out.str(), "<script>"));
  EXPECT_TRUE(contains(out.str(), "&lt;script&gt;"));
}

TEST(Charts, HeatmapAndSparklineEscapeHostileStrings) {
  charts::HeatmapSpec spec;
  spec.aria_label = kHostile;
  spec.corner_label = kHostile;
  spec.col_labels = {kHostile};
  spec.row_labels = {kHostile};
  spec.values = {1.0};
  spec.present = {1};
  spec.cell_text = {kHostile};
  spec.titles = {kHostile};
  std::ostringstream out;
  charts::heatmap(out, spec);
  EXPECT_FALSE(contains(out.str(), "<script>"));
  EXPECT_TRUE(contains(out.str(), "&lt;script&gt;"));

  const std::string spark = charts::sparkline({1.0, 2.0}, kHostile);
  EXPECT_FALSE(contains(spark, "<script>"));
  EXPECT_TRUE(contains(spark, "&lt;script&gt;"));
}

// -------------------------------------------------------- determinism

TEST(Charts, EveryBuilderIsByteDeterministic) {
  const auto render = [] {
    std::ostringstream out;
    charts::stacked_bars(out, "stack", {{"c1", "a"}, {"c2", "b"}},
                         {slot(1, 1.25, 0.75), slot(2, 0.0, 0.0),
                          slot(3, 2.0, 1.0)});
    charts::grouped_bars(out, "group", {{"c1", "a"}},
                         {slot(1, 3.0, 1.0), slot(2, 2.0, 5.0)});
    charts::LineChartSpec spec;
    spec.aria_label = "lines";
    spec.slot_ids = {1, 2, 3, 4};
    charts::LineSeries l;
    l.series = "2";
    l.values = {0.1, 0.9, 0.4, 0.7};
    l.titles = {"a", "b", "c", "d"};
    spec.lines.push_back(l);
    charts::line_chart(out, spec);
    charts::HeatmapSpec hm;
    hm.aria_label = "hm";
    hm.corner_label = "tau";
    hm.col_labels = {"3", "4"};
    hm.row_labels = {"200", "400"};
    hm.values = {0.5, 0.25, 0.75, 0.0};
    hm.present = {1, 1, 0, 1};
    hm.cell_text = {"0.50", "0.25", "", "0.00"};
    hm.titles = {"a", "b", "c", "d"};
    charts::heatmap(out, hm);
    out << charts::sparkline({0.3, 0.3, 0.9, 0.1}, "s");
    out << charts::sparkline({0.5}, "single");
    out << charts::sparkline({}, "empty");
    out << charts::sparkline({2.0, 2.0, 2.0}, "flat");
    return out.str();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Charts, HeatmapRendersMissingCellsHollow) {
  charts::HeatmapSpec spec;
  spec.aria_label = "hm";
  spec.corner_label = "tau";
  spec.col_labels = {"3", "4"};
  spec.row_labels = {"200"};
  spec.values = {1.0, 0.0};
  spec.present = {1, 0};
  spec.cell_text = {"1.00", ""};
  spec.titles = {"here", "absent"};
  std::ostringstream out;
  charts::heatmap(out, spec);
  EXPECT_TRUE(contains(out.str(), "hm-missing"));
  // A degenerate value range (one present cell) renders mid-scale, not NaN.
  EXPECT_FALSE(contains(out.str(), "nan"));
}

// ------------------------------------------------------ degenerate inputs

TEST(Charts, HeatmapEmptyMatrixRendersNothing) {
  // Zero columns or rows (a telemetry stream with no link rows, a sink with
  // no completed runs) must not divide by the axis size — the builder emits
  // nothing rather than a 0-wide grid.
  charts::HeatmapSpec spec;
  spec.aria_label = "empty";
  std::ostringstream out;
  charts::heatmap(out, spec);
  EXPECT_TRUE(out.str().empty());
  spec.col_labels = {"3"};  // columns but no rows
  charts::heatmap(out, spec);
  EXPECT_TRUE(out.str().empty());
}

TEST(Charts, HeatmapSingleRowFlatRangeIsFinite) {
  // One row whose present cells all hold the same value: the color ramp has
  // zero span, which must render mid-scale, never NaN/inf opacity.
  charts::HeatmapSpec spec;
  spec.aria_label = "flat";
  spec.corner_label = "tau";
  spec.col_labels = {"3", "4", "5"};
  spec.row_labels = {"200"};
  spec.values = {7.0, 7.0, 7.0};
  spec.present = {1, 1, 1};
  spec.cell_text = {"7", "7", "7"};
  spec.titles = {"a", "b", "c"};
  std::ostringstream out;
  charts::heatmap(out, spec);
  const std::string svg = out.str();
  EXPECT_TRUE(contains(svg, "<svg"));
  EXPECT_FALSE(contains(svg, "nan"));
  EXPECT_FALSE(contains(svg, "inf"));
  // Byte-deterministic on the degenerate path too.
  std::ostringstream again;
  charts::heatmap(again, spec);
  EXPECT_EQ(svg, again.str());
}

TEST(Charts, SparklineDegenerateSeries) {
  // Empty: a bare labeled svg, no polyline, no dot. One point: a dot at the
  // chart center (no division by size-1). Flat: a mid-height line, no NaN.
  const std::string empty = charts::sparkline({}, "no seeds");
  EXPECT_TRUE(contains(empty, "<svg"));
  EXPECT_FALSE(contains(empty, "polyline"));
  EXPECT_FALSE(contains(empty, "circle"));

  const std::string single = charts::sparkline({0.42}, "one seed");
  EXPECT_FALSE(contains(single, "polyline"));
  EXPECT_TRUE(contains(single, "circle"));
  EXPECT_FALSE(contains(single, "nan"));

  const std::string flat = charts::sparkline({1.0, 1.0, 1.0}, "flat");
  EXPECT_TRUE(contains(flat, "polyline"));
  EXPECT_FALSE(contains(flat, "nan"));
  EXPECT_EQ(flat, charts::sparkline({1.0, 1.0, 1.0}, "flat"));
  EXPECT_EQ(single, charts::sparkline({0.42}, "one seed"));
}

// ------------------------------------------------------ fleet sink loader

class SinkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("tgc_charts_test_") + info->name());
    fs::create_directories(dir_);
    sink_ = (dir_ / "fleet.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string sink_;
};

const char kManifestLine[] =
    "{\"type\":\"manifest\",\"tool\":\"tgcover\",\"command\":\"fleet\","
    "\"cfg_taus\":\"3,4\"}";
const char kOkLine[] =
    "{\"type\":\"run\",\"run\":1,\"status\":\"ok\",\"model\":\"udg\","
    "\"nodes\":200,"
    "\"degree\":12.000000,\"tau\":3,\"loss\":0.000000,\"seed\":1,"
    "\"survivors\":90,\"awake_ratio\":0.450000,\"rounds\":7,"
    "\"schedule_digest\":\"09cfee18193260f8\",\"logical_cost\":1234}";
const char kFailedLine[] =
    "{\"type\":\"run\",\"run\":0,\"status\":\"failed\",\"model\":\"bogus\","
    "\"nodes\":200,"
    "\"degree\":12.000000,\"tau\":3,\"loss\":0.000000,\"seed\":1,"
    "\"error\":\"unknown deployment model\"}";

TEST_F(SinkFixture, GoldenRoundTrip) {
  {
    std::ofstream f(sink_, std::ios::binary);
    // Completion order deliberately scrambled: the loader must sort by run.
    f << kManifestLine << "\n" << kOkLine << "\n" << kFailedLine << "\n";
  }
  const Bundle sink = load_bundle(sink_);
  EXPECT_TRUE(sink.error.empty());
  EXPECT_EQ(sink.skipped, 0u);
  ASSERT_TRUE(sink.manifest.has_value());
  EXPECT_EQ(sink.manifest->text("cfg_taus"), "3,4");
  ASSERT_EQ(sink.of("run").size(), 2u);
  EXPECT_EQ(sink.of("run")[0].u64("run"), 0u);
  EXPECT_EQ(sink.of("run")[0].text("status"), "failed");
  EXPECT_EQ(sink.of("run")[1].u64("run"), 1u);
  EXPECT_EQ(sink.of("run")[1].text("schedule_digest"), "09cfee18193260f8");
  EXPECT_EQ(sink.of("run")[1].u64("logical_cost"), 1234u);
  EXPECT_DOUBLE_EQ(sink.of("run")[1].number("awake_ratio"), 0.45);
}

TEST_F(SinkFixture, TruncatedAndPartialLinesAreSkippedNotFatal) {
  {
    std::ofstream f(sink_, std::ios::binary);
    f << kManifestLine << "\n"
      << kOkLine << "\n"
      << "not json at all\n"
      // killed mid-write, no newline
      << "{\"type\":\"run\",\"run\":2,\"status\":\"ok\",\"mo";
  }
  const Bundle sink = load_bundle(sink_);
  EXPECT_TRUE(sink.error.empty());
  EXPECT_EQ(sink.skipped, 2u);
  ASSERT_EQ(sink.of("run").size(), 1u);
  EXPECT_EQ(sink.of("run")[0].u64("run"), 1u);
}

TEST_F(SinkFixture, MissingFileIsANamedError) {
  const Bundle sink = load_bundle((dir_ / "absent.jsonl").string());
  EXPECT_FALSE(sink.error.empty());
  EXPECT_TRUE(sink.of("run").empty());
}

TEST_F(SinkFixture, ReportOnLoadedSinkIsDeterministicAndEscaped) {
  {
    std::ofstream f(sink_, std::ios::binary);
    f << kManifestLine << "\n" << kOkLine << "\n" << kFailedLine << "\n"
      << "{\"type\":\"run\",\"run\":2,\"status\":\"failed\","
         "\"model\":\"<script>\","
         "\"nodes\":1,\"degree\":1.0,\"tau\":3,\"loss\":0.0,\"seed\":9,"
         "\"error\":\"<script>alert(1)</script>\"}\n";
  }
  const Bundle sink = load_bundle(sink_);
  const std::string a = render_report_html(sink, nullptr, kHostile);
  const std::string b = render_report_html(sink, nullptr, kHostile);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(contains(a, "<script>"));
  EXPECT_TRUE(contains(a, "&lt;script&gt;"));
}

}  // namespace
}  // namespace tgc::app
