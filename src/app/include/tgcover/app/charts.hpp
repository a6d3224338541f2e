#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

/// Reusable inline-SVG chart builders layered over the html primitives.
///
/// Every section of `tgcover report` draws from this one set of builders,
/// so a chart idiom fixed here is fixed in every section. Everything is
/// byte-deterministic by construction (the
/// html.hpp contract): fixed-precision locale-free numbers, no clocks, no
/// iteration over unordered containers — callers hand in data in the order
/// it should be drawn.
///
/// Builders take pre-rendered tooltip titles rather than composing them,
/// because the natural phrasing differs per section ("round 3 — verdict
/// 1.20 ms" vs "n=400 τ=3 — cost 812"); layout and color policy is what the
/// module owns.

namespace tgc::app::charts {

using Legend = std::vector<std::pair<std::string, std::string>>;

/// One colored quantity inside a slot: `cls` is the fill class ("s1".."s6"),
/// `title` the tooltip.
struct Seg {
  std::string cls;
  double value = 0.0;
  std::string title;
};

/// One x-axis slot of a stacked- or grouped-bar chart, labeled `id`.
struct BarSlot {
  std::uint64_t id = 0;
  std::vector<Seg> segs;
};

/// Stacked bars, one stack per slot, segments bottom-to-top in the given
/// order. The topmost non-zero segment gets the rounded data end.
void stacked_bars(std::ostringstream& out, const std::string& aria_label,
                  const Legend& legend, const std::vector<BarSlot>& slots,
                  const std::string& axis_name = "round");

/// Grouped bars: the slot's segments side by side instead of stacked.
void grouped_bars(std::ostringstream& out, const std::string& aria_label,
                  const Legend& legend, const std::vector<BarSlot>& slots,
                  const std::string& axis_name = "round");

/// One polyline + dots; `series` selects the color pair ("1" -> line1/dot1).
/// `values` may be shorter than the chart's slot count (runs of different
/// length in one frame); `titles` is per point.
struct LineSeries {
  std::string series = "1";
  std::vector<double> values;
  std::vector<std::string> titles;
};

/// Baseline-anchored bars drawn behind the lines of a line chart.
struct BarSeries {
  std::string cls = "s2";
  double width_factor = 0.45;  ///< bar width as a fraction of the slot
  std::vector<double> values;
  std::vector<std::string> titles;
};

struct LineChartSpec {
  std::string aria_label;
  Legend legend;
  std::vector<std::uint64_t> slot_ids;
  std::string axis_name = "round";
  std::vector<BarSeries> bars;   ///< drawn first (behind the lines)
  std::vector<LineSeries> lines;
};

void line_chart(std::ostringstream& out, const LineChartSpec& spec);

/// A dense grid of scalar cells (fleet sweeps: rows × cols facets of the
/// parameter grid). Values are encoded as fill opacity over one series
/// color — interpolating in opacity space keeps the palette intact in both
/// light and dark schemes without hex arithmetic. Missing cells (grid points
/// with no completed run) render hollow.
struct HeatmapSpec {
  std::string aria_label;
  std::string corner_label;             ///< axes caption, e.g. "n \\ tau"
  std::vector<std::string> col_labels;  ///< x labels, left to right
  std::vector<std::string> row_labels;  ///< y labels, top to bottom
  /// Row-major rows×cols cells; `present[i] == 0` marks a missing cell and
  /// ignores `values[i]`.
  std::vector<double> values;
  std::vector<char> present;
  std::vector<std::string> cell_text;  ///< rendered inside each cell
  std::vector<std::string> titles;     ///< per-cell tooltip
};

void heatmap(std::ostringstream& out, const HeatmapSpec& spec);

/// A self-contained mini line chart (table-cell scale, ~100×26) — the
/// across-seeds trend inside one fleet grid cell. Returns the `<svg>`
/// element as a string so callers can drop it into table cells. A flat
/// series draws a mid-height line; fewer than two points draw a dot only.
std::string sparkline(const std::vector<double>& values,
                      const std::string& title);

}  // namespace tgc::app::charts
