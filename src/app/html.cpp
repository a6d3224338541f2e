#include "tgcover/app/html.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tgc::app::html {

std::string fnum(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

double nice_ceil(double v) {
  // A corrupted input can carry inf; scaling to it would never terminate.
  if (!(v > 0.0) || std::isinf(v)) return 1.0;
  double mag = 1.0;
  while (mag < v) mag *= 10.0;
  while (mag / 10.0 >= v) mag /= 10.0;
  for (const double m : {mag / 10.0 * 2.0, mag / 10.0 * 5.0, mag}) {
    if (m >= v) return m;
  }
  return mag;
}

std::string axis_label(double v) {
  // Trim trailing zeros so "5", "2.5", "0.25" all come out minimal.
  std::string s = fnum(v, 2);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

void svg_begin(std::ostringstream& out, const std::string& aria_label) {
  out << "<svg viewBox=\"0 0 " << axis_label(kSvgW) << ' ' << axis_label(kSvgH)
      << "\" role=\"img\" aria-label=\"" << escape(aria_label) << "\">\n";
}

void draw_frame(std::ostringstream& out, const Frame& f,
                const std::vector<std::uint64_t>& slot_ids,
                const std::string& axis_name) {
  const double x1 = kPadL + f.pw();
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    const double gy = f.y(f.ymax * frac);
    out << "<line class=\"grid\" x1=\"" << fnum(kPadL, 1) << "\" y1=\""
        << fnum(gy, 1) << "\" x2=\"" << fnum(x1, 1) << "\" y2=\""
        << fnum(gy, 1) << "\"/>\n";
  }
  for (const double frac : {0.0, 0.5, 1.0}) {
    out << "<text x=\"" << fnum(kPadL - 6, 1) << "\" y=\""
        << fnum(f.y(f.ymax * frac) + 4, 1) << "\" text-anchor=\"end\">"
        << axis_label(f.ymax * frac) << "</text>\n";
  }
  out << "<line class=\"baseline\" x1=\"" << fnum(kPadL, 1) << "\" y1=\""
      << fnum(f.y(0), 1) << "\" x2=\"" << fnum(x1, 1) << "\" y2=\""
      << fnum(f.y(0), 1) << "\"/>\n";
  const std::size_t step =
      std::max<std::size_t>(1, (slot_ids.size() + 11) / 12);
  for (std::size_t i = 0; i < slot_ids.size(); i += step) {
    out << "<text x=\"" << fnum(f.x(i) + f.slot() / 2, 1) << "\" y=\""
        << fnum(kSvgH - kPadB + 16, 1) << "\" text-anchor=\"middle\">"
        << slot_ids[i] << "</text>\n";
  }
  out << "<text x=\"" << fnum(kPadL + f.pw() / 2, 1) << "\" y=\""
      << fnum(kSvgH - 2, 1) << "\" text-anchor=\"middle\">"
      << escape(axis_name) << "</text>\n";
}

void bar_path(std::ostringstream& out, const std::string& cls, double x,
              double y, double w, double h, const std::string& title) {
  const double r = std::min({2.0, w / 2.0, h});
  out << "<path class=\"" << cls << "\" d=\"M" << fnum(x, 2) << ','
      << fnum(y + h, 2) << " L" << fnum(x, 2) << ',' << fnum(y + r, 2) << " Q"
      << fnum(x, 2) << ',' << fnum(y, 2) << ' ' << fnum(x + r, 2) << ','
      << fnum(y, 2) << " L" << fnum(x + w - r, 2) << ',' << fnum(y, 2) << " Q"
      << fnum(x + w, 2) << ',' << fnum(y, 2) << ' ' << fnum(x + w, 2) << ','
      << fnum(y + r, 2) << " L" << fnum(x + w, 2) << ',' << fnum(y + h, 2)
      << " Z\"><title>" << escape(title) << "</title></path>\n";
}

void rect(std::ostringstream& out, const std::string& cls, double x, double y,
          double w, double h, const std::string& title) {
  out << "<rect class=\"" << cls << "\" x=\"" << fnum(x, 2) << "\" y=\""
      << fnum(y, 2) << "\" width=\"" << fnum(w, 2) << "\" height=\""
      << fnum(h, 2) << "\"><title>" << escape(title) << "</title></rect>\n";
}

void legend(std::ostringstream& out,
            const std::vector<std::pair<std::string, std::string>>& entries) {
  out << "<div class=\"legend\">";
  for (const auto& [chip, label] : entries) {
    out << "<span><span class=\"chip " << chip << "\"></span>" << escape(label)
        << "</span>";
  }
  out << "</div>\n";
}

namespace {

const char kStyle[] = R"css(
  body.viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6;
    --series-2: #eb6834;
    --series-3: #1baf7a;
    --series-4: #8a5cd6;
    --series-5: #c2402e;
    --series-6: #898781;
    --bad: #c2402e;
    --good: #16885f;
    margin: 0; padding: 24px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  @media (prefers-color-scheme: dark) {
    body.viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --grid: #2c2c2a;
      --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5;
      --series-2: #d95926;
      --series-3: #199e70;
      --series-4: #9a6fe8;
      --series-5: #e06a57;
      --series-6: #8a8a85;
      --bad: #e06a57;
      --good: #2cc28d;
    }
  }
  main { max-width: 840px; margin: 0 auto; }
  h1 { font-size: 20px; margin: 0 0 4px; }
  .sub { color: var(--text-secondary); margin: 0 0 20px; }
  section { background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 16px 20px; margin: 0 0 16px; }
  h2 { font-size: 15px; margin: 0 0 8px; }
  .note { color: var(--text-secondary); margin: 0 0 8px; font-size: 13px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 16px; margin: 0 0 16px; }
  .tile { background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 20px; flex: 1 1 140px; }
  .tile-v { font-size: 22px; }
  .tile-l { color: var(--text-secondary); font-size: 12px; }
  .legend { display: flex; gap: 16px; margin: 0 0 6px;
    color: var(--text-secondary); font-size: 12px; }
  .chip { display: inline-block; width: 10px; height: 10px;
    border-radius: 2px; margin-right: 6px; vertical-align: -1px; }
  .chip.c1 { background: var(--series-1); }
  .chip.c2 { background: var(--series-2); }
  .chip.c3 { background: var(--series-3); }
  .chip.c4 { background: var(--series-4); }
  .chip.c5 { background: var(--series-5); }
  .chip.c6 { background: var(--series-6); }
  svg { display: block; width: 100%; height: auto; }
  svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
    fill: var(--muted); }
  .grid { stroke: var(--grid); stroke-width: 1; }
  .baseline { stroke: var(--baseline); stroke-width: 1; }
  .s1 { fill: var(--series-1); }
  .s2 { fill: var(--series-2); }
  .s3 { fill: var(--series-3); }
  .s4 { fill: var(--series-4); }
  .s5 { fill: var(--series-5); }
  .s6 { fill: var(--series-6); }
  .seg { stroke: var(--surface-1); stroke-width: 1; }
  .line1 { fill: none; stroke: var(--series-1); stroke-width: 2; }
  .line2 { fill: none; stroke: var(--series-2); stroke-width: 2; }
  .line3 { fill: none; stroke: var(--series-3); stroke-width: 2; }
  .dot1 { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 1; }
  .dot2 { fill: var(--series-2); stroke: var(--surface-1); stroke-width: 1; }
  .dot3 { fill: var(--series-3); stroke: var(--surface-1); stroke-width: 1; }
  .sbad { fill: var(--bad); }
  .sgood { fill: var(--good); }
  .hm { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 1; }
  .hm-missing { fill: none; stroke: var(--grid); stroke-width: 1;
    stroke-dasharray: 3 2; }
  .hmv { fill: var(--text-primary); font-size: 10px; }
  .spark-box { display: inline-block; width: 100px; height: 26px;
    vertical-align: middle; }
  .spark { fill: none; stroke: var(--series-1); stroke-width: 1.5; }
  .spark-dot { fill: var(--series-1); }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th { color: var(--text-secondary); font-weight: 600; text-align: right;
    padding: 4px 8px; border-bottom: 1px solid var(--baseline); }
  td { text-align: right; padding: 3px 8px;
    border-bottom: 1px solid var(--grid);
    font-variant-numeric: tabular-nums; }
  th:first-child, td:first-child { text-align: left; }
  td.bad { color: var(--bad); font-weight: 600; }
  td.good { color: var(--good); }
  td.diff { color: var(--bad); font-weight: 600; }
  .kv td { text-align: left; font-variant-numeric: normal; }
  .kv td:first-child { color: var(--text-secondary); width: 220px; }
)css";

}  // namespace

const char* style() { return kStyle; }

void page_begin(std::ostringstream& out, const std::string& title,
                const std::string& subtitle_html) {
  out << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>"
      << escape(title) << "</title>\n<style>" << style()
      << "</style>\n</head>\n<body class=\"viz-root\">\n<main>\n";
  out << "<h1>" << escape(title) << "</h1>\n";
  out << "<p class=\"sub\">" << subtitle_html << "</p>\n";
}

void page_end(std::ostringstream& out) {
  out << "</main>\n</body>\n</html>\n";
}

}  // namespace tgc::app::html
