#include "tgcover/app/scale.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"

namespace tgc::app {

namespace {

using html::fnum;

/// A rung's measured speedup against the 1-thread rung, or 0 when the claim
/// is refused (oversubscribed or degenerate wall time).
double speedup_of(const ScaleRung& rung, const ScaleRung& base) {
  if (rung.oversubscribed || rung.wall_ms <= 0.0 || base.wall_ms <= 0.0) {
    return 0.0;
  }
  return base.wall_ms / rung.wall_ms;
}

void write_scale_json(const ScaleOptions& opts,
                      const std::vector<ScaleRung>& rungs, unsigned hw,
                      std::ostream& out) {
  out << "{\"bench\":\"scale\",\"hardware_concurrency\":" << hw
      << ",\"repeat\":" << opts.repeat << ",\"in\":\"" << opts.in_path
      << "\",\"tau\":" << opts.tau << ",\"seed\":" << opts.seed
      << ",\"band\":" << html::axis_label(opts.band) << ",\"results\":[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const ScaleRung& r = rungs[i];
    if (i > 0) out << ",";
    out << "\n{\"threads\":" << r.threads << ",\"wall_ms\":"
        << fnum(r.wall_ms, 3) << ",\"speedup_vs_1t\":";
    const double sp = speedup_of(r, rungs.front());
    if (sp > 0.0) {
      out << fnum(sp, 3);
    } else {
      out << "null";
    }
    if (r.oversubscribed) out << ",\"oversubscribed\":true";
    out << ",\"schedule_digest\":\"" << util::hex64(r.digest)
        << "\",\"logical_cost\":" << r.logical_cost << ",\"rounds\":"
        << r.rounds << ",\"survivors\":" << r.survivors << "}";
  }
  out << "\n]}\n";
}

std::string render_scale_html(const ScaleOptions& opts,
                              const std::vector<ScaleRung>& rungs,
                              unsigned hw) {
  std::ostringstream out;
  std::ostringstream sub;
  sub << rungs.size() << " rungs · hardware concurrency " << hw << " · wall = "
      << "min over " << opts.repeat << " repeat(s) · digest "
      << util::hex64(rungs.front().digest) << " at every rung";
  html::page_begin(out, "tgcover scale", sub.str());

  out << "<section>\n<h2>Speedup</h2>\n"
         "<p class=\"note\">measured wall-time speedup vs the 1-thread rung "
         "against the ideal linear curve; rungs beyond the machine's "
         "concurrency are recorded but make no speedup claim</p>\n";
  charts::LineChartSpec spec;
  spec.aria_label = "speedup over thread ladder";
  spec.legend = {{"line1", "measured"}, {"line2", "ideal"}};
  spec.axis_name = "threads";
  charts::LineSeries measured;
  measured.series = "1";
  charts::LineSeries ideal;
  ideal.series = "2";
  // The measured line stops at the last honest rung (values may be shorter
  // than the slot list; the chart draws the prefix).
  bool honest_prefix = true;
  for (const ScaleRung& r : rungs) {
    spec.slot_ids.push_back(r.threads);
    ideal.values.push_back(static_cast<double>(r.threads));
    ideal.titles.push_back("ideal " + std::to_string(r.threads) + "x at " +
                           std::to_string(r.threads) + " threads");
    const double sp = speedup_of(r, rungs.front());
    if (sp > 0.0 && honest_prefix) {
      measured.values.push_back(sp);
      measured.titles.push_back(std::to_string(r.threads) + " threads — " +
                                fnum(sp, 2) + "x, wall " +
                                fnum(r.wall_ms, 1) + " ms");
    } else {
      honest_prefix = false;
    }
  }
  spec.lines.push_back(std::move(measured));
  spec.lines.push_back(std::move(ideal));
  charts::line_chart(out, spec);

  out << "<table><tr><th>threads</th><th>wall ms</th><th>speedup</th>"
         "<th>efficiency</th><th>logical cost</th><th>digest</th></tr>\n";
  for (const ScaleRung& r : rungs) {
    const double sp = speedup_of(r, rungs.front());
    out << "<tr><td>" << r.threads << (r.threads == hw ? " (hw)" : "")
        << "</td><td>" << fnum(r.wall_ms, 1) << "</td>";
    if (r.oversubscribed) {
      out << "<td colspan=\"2\">n/a (threads &gt; " << hw
          << " cores — oversubscribed)</td>";
    } else {
      out << "<td>" << fnum(sp, 2) << "x</td><td>"
          << fnum(sp / static_cast<double>(r.threads) * 100.0, 1)
          << "%</td>";
    }
    out << "<td>" << r.logical_cost << "</td><td>" << util::hex64(r.digest)
        << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";
  html::page_end(out);
  return out.str();
}

}  // namespace

int run_scale(const ScaleOptions& opts, const obs::RunManifest& manifest,
              std::ostream& out) {
  TGC_CHECK_MSG(!opts.threads.empty() && opts.threads.front() == 1,
                "--threads ladder must start at 1 (the serial baseline)");
  TGC_CHECK_MSG(opts.repeat >= 1, "--repeat must be >= 1");
  (void)manifest;  // semantic identity travels in the JSON body

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const core::Network net =
      core::prepare_network(io::load_deployment(opts.in_path), opts.band);
  obs::set_enabled(true);  // logical-cost deltas per rung

  std::vector<ScaleRung> rungs;
  for (const unsigned threads : opts.threads) {
    ScaleRung rung;
    rung.threads = threads;
    rung.oversubscribed = threads > hw;
    double best_ms = 0.0;
    for (unsigned rep = 0; rep < opts.repeat; ++rep) {
      core::DccConfig config;
      config.tau = opts.tau;
      config.seed = opts.seed;
      config.num_threads = threads;
      const obs::CostSnapshot before = obs::cost_snapshot();
      const std::uint64_t t0 = obs::now_ns();
      const core::ScheduleSummary s = core::run_dcc(net, config);
      const std::uint64_t t1 = obs::now_ns();
      const obs::CostSnapshot delta = obs::cost_snapshot() - before;
      const double wall = static_cast<double>(t1 - t0) / 1e6;
      const std::uint64_t digest = io::mask_digest(s.result.active);
      if (rep == 0) {
        best_ms = wall;
        rung.digest = digest;
        rung.logical_cost = obs::logical_cost(delta.total());
        rung.rounds = s.result.rounds;
        rung.survivors = s.result.survivors;
      } else {
        best_ms = std::min(best_ms, wall);
        if (digest != rung.digest) {
          out << "error: schedule digest diverged across repeats at "
              << threads << " threads (" << util::hex64(rung.digest)
              << " vs " << util::hex64(digest)
              << ") — the scheduler is nondeterministic\n";
          return 1;
        }
      }
    }
    rung.wall_ms = best_ms;
    if (!rungs.empty() && rung.digest != rungs.front().digest) {
      out << "error: schedule digest diverged across the thread ladder: "
          << rungs.front().threads << " threads -> "
          << util::hex64(rungs.front().digest) << ", " << threads
          << " threads -> " << util::hex64(rung.digest)
          << " — parallel execution changed the result\n";
      return 1;
    }
    if (!rungs.empty() && rung.logical_cost != rungs.front().logical_cost) {
      out << "error: logical cost diverged across the thread ladder: "
          << rungs.front().logical_cost << " at 1 thread vs "
          << rung.logical_cost << " at " << threads << " threads\n";
      return 1;
    }
    out << "scale " << threads << " thread(s): wall " << fnum(rung.wall_ms, 1)
        << " ms";
    const double sp =
        rungs.empty() ? 1.0 : rung.wall_ms > 0.0 && !rung.oversubscribed
            ? rungs.front().wall_ms / rung.wall_ms
            : 0.0;
    if (rung.oversubscribed) {
      out << " (oversubscribed: " << threads << " > " << hw
          << " cores, no speedup claim)";
    } else if (!rungs.empty() && sp > 0.0) {
      out << " (" << fnum(sp, 2) << "x)";
    }
    out << ", digest " << util::hex64(rung.digest) << "\n";
    rungs.push_back(rung);
  }

  out << "bit-identical schedules across the ladder (digest "
      << util::hex64(rungs.front().digest) << ", hardware concurrency " << hw
      << ")\n";

  if (!opts.json_path.empty()) {
    obs::JsonlWriter w(opts.json_path);
    if (w.ok()) write_scale_json(opts, rungs, hw, w.stream());
    if (!w.close()) {
      TGC_LOG(kError) << "scale sink failed" << obs::kv("error", w.error());
      return 1;
    }
    out << "wrote speedup curve to " << opts.json_path << "\n";
  }
  if (!opts.html_path.empty()) {
    const std::string html = render_scale_html(opts, rungs, hw);
    std::ofstream f(opts.html_path, std::ios::binary);
    f << html;
    f.flush();
    if (!f.good()) {
      TGC_LOG(kError) << "scale report failed"
                      << obs::kv("path", opts.html_path);
      return 1;
    }
    out << "wrote scale chart to " << opts.html_path << "\n";
  }
  return 0;
}

}  // namespace tgc::app
