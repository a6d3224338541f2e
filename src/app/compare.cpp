#include "tgcover/app/compare.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/manifest.hpp"

namespace tgc::app {

namespace {

/// One run reduced to its comparable quantities. Everything here except
/// `wall_ns` is machine-independent.
struct RunView {
  Bundle bundle;
  obs::CostVec totals;
  std::map<std::string, obs::CostVec> phase_totals;  // phase name -> vec
  std::vector<std::pair<std::uint64_t, std::uint64_t>> round_cost;
  std::uint64_t rounds = 0;
  std::uint64_t survivors = 0;
  std::uint64_t wall_ns = 0;
  bool has_summary = false;
};

/// Reduces a loaded bundle. Returns false (with a message) when the run
/// carries no logical-cost data at all.
bool make_view(Bundle bundle, RunView& view, std::string& error) {
  view.bundle = std::move(bundle);
  const Bundle& b = view.bundle;
  const std::vector<CostRow> totals = cost_rows(b, "cost_total");
  const std::vector<CostRow> costs = cost_rows(b, "cost");

  if (!totals.empty()) {
    for (const CostRow& c : totals) {
      view.phase_totals[c.phase] += c.vec;
      view.totals += c.vec;
    }
  } else if (b.has("summary")) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      view.totals.units[i] = b.of("summary").back().u64(
          std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
    }
  } else if (!costs.empty()) {
    for (const CostRow& c : costs) view.totals += c.vec;
  } else {
    error = "run '" + b.label +
            "' carries no cost records and no summary — produce it with "
            "--obs-out DIR";
    return false;
  }

  if (!costs.empty()) {
    // Aggregate the per-phase records into one scalar per round (records
    // are emitted in round order).
    for (const CostRow& c : costs) {
      if (view.round_cost.empty() || view.round_cost.back().first != c.round) {
        view.round_cost.emplace_back(c.round, 0);
      }
      view.round_cost.back().second += c.logical_cost;
    }
  } else {
    for (const RoundRow& r : round_rows(b)) {
      view.round_cost.emplace_back(r.round, r.logical_cost);
    }
  }

  if (b.has("summary")) {
    const obs::JsonRecord& summary = b.of("summary").back();
    view.has_summary = true;
    view.rounds = summary.u64("rounds");
    view.survivors = summary.u64("survivors");
    view.wall_ns = summary.u64("wall_ns");
  } else {
    view.rounds = view.round_cost.size();
  }
  return true;
}

bool key_allowed(const std::vector<std::string>& allow,
                 const std::string& key) {
  for (const std::string& a : allow) {
    if (a == key || "cfg_" + a == key) return true;
  }
  return false;
}

/// First semantic config key the two runs disagree on ("" when compatible,
/// skipping allowed keys). Missing keys compare as "<absent>".
std::string first_config_diff(const RunView& base, const RunView& run,
                              const std::vector<std::string>& allow,
                              std::string& base_value,
                              std::string& run_value) {
  std::set<std::string> keys;
  for (const auto& [k, v] : base.bundle.config) keys.insert(k);
  for (const auto& [k, v] : run.bundle.config) keys.insert(k);
  for (const std::string& key : keys) {
    const auto a = base.bundle.config.find(key);
    const auto b = run.bundle.config.find(key);
    base_value = a == base.bundle.config.end() ? "<absent>" : a->second;
    run_value = b == run.bundle.config.end() ? "<absent>" : b->second;
    if (base_value != run_value && !key_allowed(allow, key)) return key;
  }
  return "";
}

long long sdelta(std::uint64_t run, std::uint64_t base) {
  return static_cast<long long>(run) - static_cast<long long>(base);
}

/// Signed percent change, or 0 when the base is 0 (the delta field still
/// carries the change).
double pct(std::uint64_t run, std::uint64_t base) {
  if (base == 0) return 0.0;
  return 100.0 * static_cast<double>(sdelta(run, base)) /
         static_cast<double>(base);
}

// -------------------------------------------------------------- JSON delta

void json_counters(std::ostream& out, const obs::CostVec& base,
                   const obs::CostVec& run) {
  out << "{";
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (i != 0) out << ",";
    out << "\"" << obs::counter_name(static_cast<obs::CounterId>(i))
        << "\":{\"base\":" << base.units[i] << ",\"run\":" << run.units[i]
        << ",\"delta\":" << sdelta(run.units[i], base.units[i]) << "}";
  }
  out << "}";
}

void write_json(std::ostream& out, const CompareOptions& opts,
                const std::vector<RunView>& views,
                const std::vector<std::vector<std::string>>& regressions) {
  const RunView& base = views.front();
  const std::uint64_t base_cost = obs::logical_cost(base.totals);
  out << "{\"type\":\"compare\",\"threshold_pct\":"
      << html::fnum(opts.threshold_pct, 2)
      << ",\"wall_clock\":\"advisory\",\"baseline\":{\"path\":\""
      << obs::json_escape(base.bundle.label)
      << "\",\"logical_cost\":" << base_cost << ",\"rounds\":" << base.rounds
      << ",\"survivors\":" << base.survivors
      << ",\"wall_ns\":" << base.wall_ns << "},\"runs\":[";
  for (std::size_t r = 1; r < views.size(); ++r) {
    const RunView& run = views[r];
    const std::uint64_t run_cost = obs::logical_cost(run.totals);
    if (r != 1) out << ",";
    out << "{\"path\":\"" << obs::json_escape(run.bundle.label)
        << "\",\"logical_cost\":" << run_cost
        << ",\"logical_cost_delta\":" << sdelta(run_cost, base_cost)
        << ",\"logical_cost_pct\":" << html::fnum(pct(run_cost, base_cost), 2)
        << ",\"rounds\":" << run.rounds << ",\"survivors\":" << run.survivors
        << ",\"wall_ns\":" << run.wall_ns
        << ",\"wall_ns_delta\":" << sdelta(run.wall_ns, base.wall_ns)
        << ",\"counters\":";
    json_counters(out, base.totals, run.totals);
    // Per-phase deltas over the union of phases seen in either run.
    out << ",\"phases\":{";
    std::set<std::string> phases;
    for (const auto& [p, v] : base.phase_totals) phases.insert(p);
    for (const auto& [p, v] : run.phase_totals) phases.insert(p);
    bool first = true;
    for (const std::string& phase : phases) {
      const auto a = base.phase_totals.find(phase);
      const auto b = run.phase_totals.find(phase);
      const std::uint64_t pa =
          a == base.phase_totals.end() ? 0 : obs::logical_cost(a->second);
      const std::uint64_t pb =
          b == run.phase_totals.end() ? 0 : obs::logical_cost(b->second);
      if (!first) out << ",";
      first = false;
      out << "\"" << obs::json_escape(phase) << "\":{\"base\":" << pa
          << ",\"run\":" << pb << ",\"delta\":" << sdelta(pb, pa)
          << ",\"pct\":" << html::fnum(pct(pb, pa), 2) << "}";
    }
    out << "},\"per_round\":[";
    const std::size_t n =
        std::min(base.round_cost.size(), run.round_cost.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out << ",";
      out << "{\"round\":" << base.round_cost[i].first
          << ",\"base\":" << base.round_cost[i].second
          << ",\"run\":" << run.round_cost[i].second << ",\"delta\":"
          << sdelta(run.round_cost[i].second, base.round_cost[i].second)
          << "}";
    }
    out << "],\"regressions\":[";
    for (std::size_t i = 0; i < regressions[r].size(); ++i) {
      if (i != 0) out << ",";
      out << "\"" << obs::json_escape(regressions[r][i]) << "\"";
    }
    out << "]}";
  }
  out << "]}\n";
}

// ---------------------------------------------------------- HTML dashboard

/// Short display label: the final path component, falling back to the whole
/// label. Escaped by the callers.
std::string short_label(const std::string& label) {
  const std::size_t slash = label.find_last_of('/');
  if (slash == std::string::npos || slash + 1 == label.size()) return label;
  return label.substr(slash + 1);
}

void section_identity(std::ostringstream& out,
                      const std::vector<RunView>& views) {
  out << "<section>\n<h2>Run identity</h2>\n"
         "<p class=\"note\">Semantic configuration from the embedded "
         "manifests. Differing values are highlighted; compare refuses them "
         "unless --allow-diff lists the key.</p>\n<table class=\"kv\">\n";
  out << "<tr><th>key</th>";
  for (const RunView& v : views) {
    out << "<th>" << html::escape(short_label(v.bundle.label)) << "</th>";
  }
  out << "</tr>\n";
  std::set<std::string> keys;
  for (const RunView& v : views) {
    for (const auto& [k, value] : v.bundle.config) keys.insert(k);
  }
  for (const std::string& key : keys) {
    std::set<std::string> distinct;
    std::vector<std::string> values;
    for (const RunView& v : views) {
      const auto it = v.bundle.config.find(key);
      values.push_back(it == v.bundle.config.end() ? "<absent>" : it->second);
      distinct.insert(values.back());
    }
    const char* cls = distinct.size() > 1 ? " class=\"diff\"" : "";
    const std::string display =
        key.rfind("cfg_", 0) == 0 ? "--" + key.substr(4) : key;
    out << "<tr><td>" << html::escape(display) << "</td>";
    for (const std::string& v : values) {
      out << "<td" << cls << ">" << html::escape(v) << "</td>";
    }
    out << "</tr>\n";
  }
  if (keys.empty()) {
    out << "<tr><td>manifest</td>";
    for (std::size_t i = 0; i < views.size(); ++i) {
      out << "<td>none embedded</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n</section>\n";
}

/// A value cell plus a delta cell against the baseline, classed bad/good
/// when the relative change crosses the threshold.
void delta_cells(std::ostringstream& out, std::uint64_t base,
                 std::uint64_t run, double threshold_pct) {
  const double p = pct(run, base);
  const long long d = sdelta(run, base);
  const char* cls = "";
  if (d != 0 && (base == 0 || p > threshold_pct)) {
    cls = d > 0 ? " class=\"bad\"" : " class=\"good\"";
  } else if (d != 0 && p < -threshold_pct) {
    cls = " class=\"good\"";
  }
  out << "<td>" << run << "</td><td" << cls << ">" << (d > 0 ? "+" : "") << d;
  if (base != 0 && d != 0) {
    out << " (" << (d > 0 ? "+" : "") << html::fnum(p, 1) << "%)";
  }
  out << "</td>";
}

void section_totals(std::ostringstream& out, const std::vector<RunView>& views,
                    double threshold_pct) {
  const RunView& base = views.front();
  out << "<section>\n<h2>Logical cost totals</h2>\n"
         "<p class=\"note\">Machine-independent work units; identical runs "
         "show zero delta on every row regardless of host, thread count, or "
         "log level.</p>\n<table>\n<tr><th>metric</th><th>"
      << html::escape(short_label(base.bundle.label)) << "</th>";
  for (std::size_t r = 1; r < views.size(); ++r) {
    out << "<th>" << html::escape(short_label(views[r].bundle.label))
        << "</th><th>&#916;</th>";
  }
  out << "</tr>\n";
  const auto row = [&](const std::string& name, const auto& get) {
    out << "<tr><td>" << html::escape(name) << "</td><td>" << get(base)
        << "</td>";
    for (std::size_t r = 1; r < views.size(); ++r) {
      delta_cells(out, get(base), get(views[r]), threshold_pct);
    }
    out << "</tr>\n";
  };
  row("logical cost", [](const RunView& v) {
    return obs::logical_cost(v.totals);
  });
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto id = static_cast<obs::CounterId>(i);
    row(std::string(obs::counter_name(id)),
        [id](const RunView& v) { return v.totals.get(id); });
  }
  row("rounds", [](const RunView& v) { return v.rounds; });
  row("survivors", [](const RunView& v) { return v.survivors; });
  out << "</table>\n</section>\n";
}

void section_phases(std::ostringstream& out, const std::vector<RunView>& views,
                    double threshold_pct) {
  const RunView& base = views.front();
  std::set<std::string> phases;
  for (const RunView& v : views) {
    for (const auto& [p, vec] : v.phase_totals) phases.insert(p);
  }
  out << "<section>\n<h2>Per-phase logical cost</h2>\n";
  if (phases.empty()) {
    out << "<p class=\"note\">The inputs carry no per-phase cost records "
           "(produced before the cost model, or stripped).</p>\n"
           "</section>\n";
    return;
  }
  out << "<p class=\"note\">Where the work lives: logical cost per protocol "
         "phase, baseline vs run.</p>\n<table>\n<tr><th>phase</th><th>"
      << html::escape(short_label(base.bundle.label)) << "</th>";
  for (std::size_t r = 1; r < views.size(); ++r) {
    out << "<th>" << html::escape(short_label(views[r].bundle.label))
        << "</th><th>&#916;</th>";
  }
  out << "</tr>\n";
  for (const std::string& phase : phases) {
    const auto cost_of = [&phase](const RunView& v) -> std::uint64_t {
      const auto it = v.phase_totals.find(phase);
      return it == v.phase_totals.end() ? 0 : obs::logical_cost(it->second);
    };
    out << "<tr><td>" << html::escape(phase) << "</td><td>" << cost_of(base)
        << "</td>";
    for (std::size_t r = 1; r < views.size(); ++r) {
      delta_cells(out, cost_of(base), cost_of(views[r]), threshold_pct);
    }
    out << "</tr>\n";
  }
  out << "</table>\n</section>\n";
}

void section_curves(std::ostringstream& out,
                    const std::vector<RunView>& views) {
  out << "<section>\n<h2>Per-round logical cost</h2>\n"
         "<p class=\"note\">Logical cost per deletion round, one line per "
         "run";
  if (views.size() > 3) {
    out << " (first 3 of " << views.size() << " runs drawn)";
  }
  out << ".</p>\n";
  const std::size_t drawn = std::min<std::size_t>(3, views.size());
  charts::LineChartSpec spec;
  spec.aria_label = "Per-round logical cost per run";
  std::size_t n = 0;
  for (std::size_t r = 0; r < drawn; ++r) {
    n = std::max(n, views[r].round_cost.size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    spec.slot_ids.push_back(i < views.front().round_cost.size()
                                ? views.front().round_cost[i].first
                                : static_cast<std::uint64_t>(i + 1));
  }
  for (std::size_t r = 0; r < drawn; ++r) {
    const std::string label = short_label(views[r].bundle.label);
    spec.legend.emplace_back("c" + std::to_string(r + 1), label);
    charts::LineSeries line;
    line.series = std::to_string(r + 1);
    for (const auto& [round, cost] : views[r].round_cost) {
      line.values.push_back(static_cast<double>(cost));
      line.titles.push_back("round " + std::to_string(round) + " — " + label +
                            " " + std::to_string(cost));
    }
    spec.lines.push_back(std::move(line));
  }
  charts::line_chart(out, spec);
  out << "</section>\n";
}

void section_round_deltas(std::ostringstream& out,
                          const std::vector<RunView>& views,
                          double threshold_pct) {
  const RunView& base = views.front();
  out << "<section>\n<h2>Per-round delta</h2>\n"
         "<p class=\"note\">Logical cost per round against the baseline. "
         "Rows past the shorter run are omitted.</p>\n"
         "<table>\n<tr><th>round</th><th>"
      << html::escape(short_label(base.bundle.label)) << "</th>";
  for (std::size_t r = 1; r < views.size(); ++r) {
    out << "<th>" << html::escape(short_label(views[r].bundle.label))
        << "</th><th>&#916;</th>";
  }
  out << "</tr>\n";
  std::size_t n = base.round_cost.size();
  for (std::size_t r = 1; r < views.size(); ++r) {
    n = std::min(n, views[r].round_cost.size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    out << "<tr><td>" << base.round_cost[i].first << "</td><td>"
        << base.round_cost[i].second << "</td>";
    for (std::size_t r = 1; r < views.size(); ++r) {
      delta_cells(out, base.round_cost[i].second,
                  views[r].round_cost[i].second, threshold_pct);
    }
    out << "</tr>\n";
  }
  out << "</table>\n</section>\n";
}

void section_wall(std::ostringstream& out, const std::vector<RunView>& views) {
  out << "<section>\n<h2>Wall clock (advisory)</h2>\n"
         "<p class=\"note\">Wall-clock time is machine- and load-dependent; "
         "it never gates a comparison. Use the logical-cost tables above for "
         "cross-machine conclusions.</p>\n<table>\n"
         "<tr><th>run</th><th>wall ms</th></tr>\n";
  for (const RunView& v : views) {
    out << "<tr><td>" << html::escape(short_label(v.bundle.label))
        << "</td><td>"
        << (v.has_summary
                ? html::fnum(static_cast<double>(v.wall_ns) / 1e6, 1)
                : std::string("n/a"))
        << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";
}

std::string render_compare_html(const CompareOptions& opts,
                                const std::vector<RunView>& views,
                                const std::vector<std::vector<std::string>>&
                                    regressions) {
  std::ostringstream out;
  std::ostringstream sub;
  sub << views.size() << " runs &#183; baseline "
      << html::escape(views.front().bundle.label)
      << " &#183; regression threshold "
      << html::escape(html::axis_label(opts.threshold_pct)) << "%";
  html::page_begin(out, opts.title, sub.str());

  std::size_t total_regressions = 0;
  for (const auto& r : regressions) total_regressions += r.size();
  if (total_regressions > 0) {
    out << "<section>\n<h2>Regressions</h2>\n<table>\n"
           "<tr><th>run</th><th>finding</th></tr>\n";
    for (std::size_t r = 1; r < views.size(); ++r) {
      for (const std::string& msg : regressions[r]) {
        out << "<tr><td>"
            << html::escape(short_label(views[r].bundle.label))
            << "</td><td class=\"bad\">" << html::escape(msg)
            << "</td></tr>\n";
      }
    }
    out << "</table>\n</section>\n";
  }

  section_identity(out, views);
  section_totals(out, views, opts.threshold_pct);
  section_phases(out, views, opts.threshold_pct);
  section_curves(out, views);
  section_round_deltas(out, views, opts.threshold_pct);
  section_wall(out, views);
  html::page_end(out);
  return out.str();
}

}  // namespace

int compare_runs(const CompareOptions& opts, std::ostream& out) {
  if (opts.runs.size() < 2) {
    out << "error: compare needs at least two runs (got " << opts.runs.size()
        << ") — usage: tgcover compare RUN1 RUN2 [RUN...]\n";
    return 1;
  }

  std::vector<RunView> views;
  for (const std::string& path : opts.runs) {
    Bundle bundle = load_bundle(path);
    if (!bundle.error.empty()) {
      out << "error: " << bundle.error << "\n";
      return 1;
    }
    for (const std::string& note : bundle.notes) {
      out << "note: " << note << "\n";
    }
    RunView view;
    std::string error;
    if (!make_view(std::move(bundle), view, error)) {
      out << "error: " << error << "\n";
      return 1;
    }
    views.push_back(std::move(view));
  }

  // Semantic-compatibility gate: every run must agree with the baseline on
  // command + cfg_* keys, unless the key is explicitly allowed to differ.
  for (std::size_t r = 1; r < views.size(); ++r) {
    const bool base_m = !views.front().bundle.config.empty();
    const bool run_m = !views[r].bundle.config.empty();
    if (base_m != run_m && !key_allowed(opts.allow_diff, "manifest")) {
      out << "error: '" << (base_m ? views[r] : views.front()).bundle.label
          << "' carries no manifest, so semantic compatibility cannot be "
             "established; pass --allow-diff manifest to compare anyway\n";
      return 1;
    }
    std::string base_value;
    std::string run_value;
    const std::string key = first_config_diff(
        views.front(), views[r], opts.allow_diff, base_value, run_value);
    if (!key.empty()) {
      const std::string display =
          key.rfind("cfg_", 0) == 0 ? key.substr(4) : key;
      out << "error: runs '" << views.front().bundle.label << "' and '"
          << views[r].bundle.label << "' disagree on semantic config '"
          << display << "' (" << base_value << " vs " << run_value
          << "); pass --allow-diff " << display << " to compare anyway\n";
      return 1;
    }
  }

  // Regression scan: total and per-phase logical cost above the threshold.
  const RunView& base = views.front();
  const std::uint64_t base_cost = obs::logical_cost(base.totals);
  std::vector<std::vector<std::string>> regressions(views.size());
  for (std::size_t r = 1; r < views.size(); ++r) {
    const std::uint64_t run_cost = obs::logical_cost(views[r].totals);
    const double p = pct(run_cost, base_cost);
    if ((base_cost == 0 && run_cost > 0) || p > opts.threshold_pct) {
      regressions[r].push_back("total logical cost +" +
                               std::to_string(sdelta(run_cost, base_cost)) +
                               " (+" + html::fnum(p, 1) + "%)");
    }
    for (const auto& [phase, vec] : views[r].phase_totals) {
      const auto it = base.phase_totals.find(phase);
      const std::uint64_t pb = it == base.phase_totals.end()
                                   ? 0
                                   : obs::logical_cost(it->second);
      const std::uint64_t pr = obs::logical_cost(vec);
      const double pp = pct(pr, pb);
      if ((pb == 0 && pr > 0) || pp > opts.threshold_pct) {
        regressions[r].push_back(
            "phase " + phase + " logical cost +" +
            std::to_string(sdelta(pr, pb)) + " (+" + html::fnum(pp, 1) +
            "%)");
      }
    }
  }

  if (!opts.json_path.empty()) {
    std::ofstream f(opts.json_path, std::ios::binary);
    write_json(f, opts, views, regressions);
    f.flush();
    if (!f.good()) {
      out << "error: cannot write '" << opts.json_path << "'\n";
      return 1;
    }
    out << "wrote JSON delta to " << opts.json_path << "\n";
  }
  if (!opts.html_path.empty()) {
    std::ofstream f(opts.html_path, std::ios::binary);
    f << render_compare_html(opts, views, regressions);
    f.flush();
    if (!f.good()) {
      out << "error: cannot write '" << opts.html_path << "'\n";
      return 1;
    }
    out << "wrote diff dashboard to " << opts.html_path << "\n";
  }

  for (std::size_t r = 1; r < views.size(); ++r) {
    const std::uint64_t run_cost = obs::logical_cost(views[r].totals);
    out << views[r].bundle.label << ": logical cost " << run_cost << " vs "
        << base_cost << " (delta " << sdelta(run_cost, base_cost) << ", "
        << html::fnum(pct(run_cost, base_cost), 2) << "%), "
        << regressions[r].size() << " regression(s) above "
        << html::axis_label(opts.threshold_pct) << "%\n";
  }
  return 0;
}

}  // namespace tgc::app
