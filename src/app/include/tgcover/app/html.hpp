#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

/// Building blocks for the self-contained HTML dashboard rendered by
/// `tgcover report`. Everything here is byte-deterministic by construction:
/// fixed-precision locale-free number formatting, no clocks, no iteration
/// over unordered containers.

namespace tgc::app::html {

/// Fixed-precision, locale-free float formatting — every double that lands
/// in a dashboard goes through here.
std::string fnum(double v, int prec);

/// Escapes &, <, >, and " for HTML text and attribute contexts. Every
/// user-controlled string (file paths, manifest values, titles, node
/// labels) must pass through this before entering the document.
std::string escape(const std::string& text);

/// Smallest 1/2/5 x 10^k that is >= v; 1.0 when v is not positive or not
/// finite. Keeps axis maxima round without floating-point drift.
double nice_ceil(double v);

/// Minimal decimal form of an axis value ("5", "2.5", "0.25").
std::string axis_label(double v);

// ------------------------------------------------------------ chart frame

inline constexpr double kSvgW = 760.0;
inline constexpr double kSvgH = 240.0;
inline constexpr double kPadL = 52.0;
inline constexpr double kPadR = 14.0;
inline constexpr double kPadT = 14.0;
inline constexpr double kPadB = 30.0;

/// One chart's coordinate system: n equal x slots over the plot area, a
/// linear y scale from 0 to ymax.
struct Frame {
  std::size_t n = 1;
  double ymax = 1.0;

  double pw() const { return kSvgW - kPadL - kPadR; }
  double ph() const { return kSvgH - kPadT - kPadB; }
  double slot() const { return pw() / static_cast<double>(n == 0 ? 1 : n); }
  double x(std::size_t i) const {
    return kPadL + slot() * static_cast<double>(i);
  }
  double y(double v) const { return kPadT + ph() - (v / ymax) * ph(); }
};

void svg_begin(std::ostringstream& out, const std::string& aria_label);

/// Hairline grid at 25/50/75%, y labels at 0/50/100%, the baseline, and
/// sparse x labels under the slots (`axis_name` captions the x axis).
void draw_frame(std::ostringstream& out, const Frame& f,
                const std::vector<std::uint64_t>& slot_ids,
                const std::string& axis_name = "round");

/// A baseline-anchored bar with a 4px-diameter rounded data end (falls back
/// to a square top when the bar is too small to round).
void bar_path(std::ostringstream& out, const std::string& cls, double x,
              double y, double w, double h, const std::string& title);

void rect(std::ostringstream& out, const std::string& cls, double x, double y,
          double w, double h, const std::string& title);

void legend(std::ostringstream& out,
            const std::vector<std::pair<std::string, std::string>>& entries);

/// The shared stylesheet (light/dark via prefers-color-scheme).
const char* style();

/// Document shell: `<!doctype html>` through the opening of `<main>`,
/// including the escaped title and an (already-HTML) subtitle line.
void page_begin(std::ostringstream& out, const std::string& title,
                const std::string& subtitle_html);
void page_end(std::ostringstream& out);

}  // namespace tgc::app::html
