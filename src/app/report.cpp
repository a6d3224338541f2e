#include "tgcover/app/report.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/util/table.hpp"

namespace tgc::app {

namespace {

using html::escape;
using html::fnum;

/// Ceilings on header-claimed sizes, so a corrupted header is a named
/// refusal instead of a giant allocation: --threads caps pools at 1024, and
/// the quality probe writes 9 k-coverage buckets.
constexpr std::uint64_t kMaxWorkers = 1024;
constexpr std::uint64_t kMaxKBuckets = 64;

bool has_run_records(const Bundle& b) {
  return b.has("round") || b.has("cost") || b.has("cost_total") ||
         b.has("summary");
}

bool has_trace(const Bundle& b) {
  return b.has("trace_header") || !b.trace_events.empty();
}

std::string ms(std::uint64_t ns) {
  return fnum(static_cast<double>(ns) / 1e6, 2);
}

double ms_of(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void tile(std::ostringstream& out, const std::string& value,
          const std::string& label) {
  out << "<div class=\"tile\"><div class=\"tile-v\">" << escape(value)
      << "</div><div class=\"tile-l\">" << escape(label) << "</div></div>\n";
}

std::string round_title(std::uint64_t round) {
  return "round " + std::to_string(round) + " — ";
}

// ============================================================ run sections

/// Fixed phase -> color-series mapping so the same phase gets the same color
/// in every chart and legend.
const char* phase_series(const std::string& phase) {
  if (phase == "verdicts") return "1";
  if (phase == "mis") return "2";
  if (phase == "deletion") return "3";
  if (phase == "khop") return "4";
  if (phase == "repair") return "5";
  return "6";
}

/// Per-round scheduler phase time as stacked bars (verdict / MIS /
/// deletion, bottom to top).
void chart_phases(std::ostringstream& out, const std::vector<RoundRow>& rows) {
  std::vector<charts::BarSlot> slots;
  for (const RoundRow& r : rows) {
    charts::BarSlot slot;
    slot.id = r.round;
    const std::pair<const char*, std::uint64_t> segs[] = {
        {"verdict", r.ns_verdicts},
        {"MIS", r.ns_mis},
        {"deletion", r.ns_deletion},
    };
    int series = 1;
    for (const auto& [name, ns] : segs) {
      const double v = ms_of(ns);
      slot.segs.push_back({"s" + std::to_string(series++), v,
                           round_title(r.round) + name + " " + fnum(v, 2) +
                               " ms"});
    }
    slots.push_back(std::move(slot));
  }
  charts::stacked_bars(out, "Per-round scheduler phase time in milliseconds",
                       {{"c1", "verdict phase"},
                        {"c2", "MIS phase"},
                        {"c3", "deletion phase"}},
                       slots);
}

/// Machine-independent logical cost per round as stacked bars, one segment
/// per protocol phase. Same data on any host, thread count, or log level.
void chart_cost_phases(std::ostringstream& out,
                       const std::vector<CostRow>& costs) {
  // Regroup the flat (round, phase) records into per-round stacks; records
  // arrive in round order with deterministic phase order inside a round.
  std::vector<charts::BarSlot> slots;
  std::vector<std::string> phases_seen;
  for (const CostRow& c : costs) {
    if (slots.empty() || slots.back().id != c.round) {
      slots.push_back(charts::BarSlot{c.round, {}});
    }
    slots.back().segs.push_back(
        {"s" + std::string(phase_series(c.phase)),
         static_cast<double>(c.logical_cost),
         round_title(c.round) + c.phase + " cost " +
             std::to_string(c.logical_cost)});
    if (std::find(phases_seen.begin(), phases_seen.end(), c.phase) ==
        phases_seen.end()) {
      phases_seen.push_back(c.phase);
    }
  }
  charts::Legend entries;
  for (const std::string& phase : phases_seen) {
    entries.emplace_back("c" + std::string(phase_series(phase)), phase);
  }
  charts::stacked_bars(out, "Per-round logical cost by protocol phase",
                       entries, slots);
}

/// The per-round logical-cost curve (the scalar the bench gate reasons
/// about).
void chart_cost_curve(std::ostringstream& out,
                      const std::vector<RoundRow>& rows) {
  charts::LineChartSpec spec;
  spec.aria_label = "Per-round logical cost";
  spec.legend = {{"c1", "logical cost per round"}};
  charts::LineSeries line;
  for (const RoundRow& r : rows) {
    const std::uint64_t cost = obs::logical_cost(r.counters);
    spec.slot_ids.push_back(r.round);
    line.values.push_back(static_cast<double>(cost));
    line.titles.push_back(round_title(r.round) + "cost " +
                          std::to_string(cost));
  }
  spec.lines.push_back(std::move(line));
  charts::line_chart(out, spec);
}

/// The coverage curve — active nodes after each round (line) and nodes
/// deleted in the round (bars). Both in node counts, one axis.
void chart_coverage(std::ostringstream& out,
                    const std::vector<RoundRow>& rows) {
  charts::LineChartSpec spec;
  spec.aria_label = "Active and deleted node counts per round";
  spec.legend = {{"c1", "active nodes after round"},
                 {"c2", "deleted this round"}};
  charts::BarSeries deleted;
  charts::LineSeries active;
  for (const RoundRow& r : rows) {
    spec.slot_ids.push_back(r.round);
    deleted.values.push_back(static_cast<double>(r.deleted));
    deleted.titles.push_back(round_title(r.round) + "deleted " +
                             std::to_string(r.deleted));
    active.values.push_back(static_cast<double>(r.active));
    active.titles.push_back(round_title(r.round) + "active " +
                            std::to_string(r.active));
  }
  spec.bars.push_back(std::move(deleted));
  spec.lines.push_back(std::move(active));
  charts::line_chart(out, spec);
}

/// Per-round radio traffic as grouped bars (messages sent, retransmissions,
/// transmissions lost).
void chart_traffic(std::ostringstream& out, const std::vector<RoundRow>& rows) {
  std::vector<charts::BarSlot> slots;
  for (const RoundRow& r : rows) {
    charts::BarSlot slot;
    slot.id = r.round;
    const std::tuple<const char*, const char*, obs::CounterId> bars[] = {
        {"s1", "messages", obs::CounterId::kMessages},
        {"s2", "retransmissions", obs::CounterId::kRetransmissions},
        {"s3", "lost", obs::CounterId::kMessagesLost},
    };
    for (const auto& [cls, name, id] : bars) {
      const std::uint64_t v = r.counters.get(id);
      slot.segs.push_back({cls, static_cast<double>(v),
                           round_title(r.round) + name + " " +
                               std::to_string(v)});
    }
    slots.push_back(std::move(slot));
  }
  charts::grouped_bars(out,
                       "Per-round message, retransmission, and loss counts",
                       {{"c1", "messages"},
                        {"c2", "retransmissions"},
                        {"c3", "lost on the air"}},
                       slots);
}

void section_round_table(std::ostringstream& out,
                         const std::vector<RoundRow>& rows) {
  out << "<section>\n<h2>Per-round data</h2>\n"
         "<p class=\"note\">The table view of the charts above; `cost` is "
         "the machine-independent logical-cost scalar.</p>\n"
         "<table>\n<tr><th>round</th><th>active</th><th>deleted</th>"
         "<th>msgs</th><th>rexmit</th><th>lost</th><th>cost</th>"
         "<th>verdict ms</th><th>MIS ms</th><th>deletion ms</th></tr>\n";
  const auto row = [&out](const std::string& label, const RoundRow& r) {
    out << "<tr><td>" << label << "</td><td>" << r.active << "</td><td>"
        << r.deleted << "</td><td>" << r.counters.get(obs::CounterId::kMessages)
        << "</td><td>" << r.counters.get(obs::CounterId::kRetransmissions)
        << "</td><td>" << r.counters.get(obs::CounterId::kMessagesLost)
        << "</td><td>" << obs::logical_cost(r.counters) << "</td><td>"
        << ms(r.ns_verdicts) << "</td><td>"
        << ms(r.ns_mis) << "</td><td>" << ms(r.ns_deletion) << "</td></tr>\n";
  };
  RoundRow total;
  for (const RoundRow& r : rows) {
    total += r;
    row(std::to_string(r.round), r);
  }
  if (!rows.empty()) row("total", total);
  out << "</table>\n</section>\n";
}

void section_cost_totals(std::ostringstream& out,
                         const std::vector<CostRow>& totals) {
  if (totals.empty()) return;
  out << "<section>\n<h2>Logical cost by phase</h2>\n"
         "<p class=\"note\">Run-total work units per protocol phase. These "
         "numbers are byte-identical across machines, thread counts, and "
         "log levels — gate one run against another with "
         "`tools/bench_gate.py`.</p>\n<table>\n<tr><th>phase</th>";
  for (const auto& [name, id] : kCostColumns) out << "<th>" << name << "</th>";
  out << "<th>cost</th></tr>\n";
  const auto row = [&out](const std::string& label, const obs::CostVec& v,
                          std::uint64_t cost) {
    out << "<tr><td>" << escape(label) << "</td>";
    for (const auto& [name, id] : kCostColumns) {
      out << "<td>" << v.get(id) << "</td>";
    }
    out << "<td>" << cost << "</td></tr>\n";
  };
  obs::CostVec sum;
  std::uint64_t sum_cost = 0;
  for (const CostRow& c : totals) {
    sum += c.vec;
    sum_cost += c.logical_cost;
    row(c.phase, c.vec, c.logical_cost);
  }
  row("total", sum, sum_cost);
  out << "</table>\n</section>\n";
}

void run_tiles(std::ostringstream& out, const Bundle& b) {
  if (!b.has("summary")) return;
  const obs::JsonRecord& s = b.of("summary").back();
  tile(out, std::to_string(s.u64("rounds")), "deletion rounds");
  tile(out, std::to_string(s.u64("survivors")), "nodes awake");
  tile(out, std::to_string(s.u64("logical_cost")), "logical cost");
  tile(out, fnum(s.number("wall_ns") / 1e6, 1) + " ms", "wall time");
}

void run_sections(std::ostringstream& out, const Bundle& b) {
  const std::vector<RoundRow> rows = round_rows(b);
  const std::vector<CostRow> costs = cost_rows(b, "cost");

  out << "<section>\n<h2>Logical cost timeline</h2>\n"
         "<p class=\"note\">Machine-independent work units per deletion "
         "round, stacked by protocol phase. Identical inputs produce this "
         "chart byte-for-byte on any host.";
  if (costs.empty()) {
    out << " No per-phase cost records in the input.";
  }
  out << "</p>\n";
  if (!costs.empty()) chart_cost_phases(out, costs);
  out << "</section>\n";

  if (!rows.empty()) {
    out << "<section>\n<h2>Logical cost curve</h2>\n"
           "<p class=\"note\">The per-round logical-cost scalar — the "
           "quantity the bench gate enforces.</p>\n";
    chart_cost_curve(out, rows);
    out << "</section>\n";

    out << "<section>\n<h2>Round timeline</h2>\n"
           "<p class=\"note\">Scheduler time per deletion round, split by "
           "phase (ms). Wall-clock is advisory: it varies with host and "
           "load.</p>\n";
    chart_phases(out, rows);
    out << "</section>\n";

    out << "<section>\n<h2>Coverage schedule</h2>\n"
           "<p class=\"note\">Nodes still awake after each round, and the "
           "MIS deleted in it.</p>\n";
    chart_coverage(out, rows);
    out << "</section>\n";

    out << "<section>\n<h2>Radio traffic</h2>\n"
           "<p class=\"note\">Messages simulated per round, with the loss "
           "and retransmission overhead of the asynchronous substrate.</p>\n";
    chart_traffic(out, rows);
    out << "</section>\n";

    section_round_table(out, rows);
  }
  section_cost_totals(out, cost_rows(b, "cost_total"));
}

// ========================================================== trace section

void section_critical_path(std::ostringstream& out, const TraceStats& trace) {
  out << "<section>\n<h2>Causal critical path</h2>\n"
         "<p class=\"note\">Longest send&#8594;deliver chain per scheduler "
         "segment; rounds are global barriers, so convergence latency is "
         "the sum over segments.</p>\n";
  out << "<p><strong>" << trace.critical_path
      << " message hops to convergence</strong> across "
      << trace.deletion_rounds << " deletion round(s), "
      << trace.fixpoint_probes << " fixpoint probe(s), "
      << trace.engine_rounds << " engine rounds.</p>\n";
  out << "<p class=\"note\">" << trace.sends << " sent, " << trace.delivers
      << " delivered, " << trace.drops << " dropped, " << trace.losses
      << " lost (" << trace.lost_words << " words), " << trace.retransmits
      << " retransmissions.";
  if (trace.latency_samples > 0) {
    out << " Delivery latency min " << fnum(trace.latency_min, 3) << ", mean "
        << fnum(trace.latency_sum /
                    static_cast<double>(trace.latency_samples),
                3)
        << ", max " << fnum(trace.latency_max, 3) << " ("
        << trace.latency_samples << " samples).";
  }
  out << "</p>\n";
  out << "<table>\n<tr><th>segment</th><th>critical hops</th></tr>\n";
  for (std::size_t i = 0; i < trace.segment_hops.size(); ++i) {
    out << "<tr><td>" << (i + 1) << "</td><td>" << trace.segment_hops[i]
        << "</td></tr>\n";
  }
  out << "<tr><td>total</td><td>" << trace.critical_path << "</td></tr>\n"
      << "</table>\n";
  if (!trace.busiest.empty()) {
    out << "<p class=\"note\">Busiest nodes (sent + received):</p>\n"
           "<table>\n<tr><th>node</th><th>messages</th></tr>\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(5, trace.busiest.size());
         ++i) {
      out << "<tr><td>" << trace.busiest[i].second << "</td><td>"
          << trace.busiest[i].first << "</td></tr>\n";
    }
    out << "</table>\n";
  }
  out << "</section>\n";
}

// ======================================================= profile sections

/// Reverse of prof_kind_name; false on an unknown kind token.
bool parse_kind(const std::string& name, obs::ProfKind& kind) {
  for (std::size_t k = 0; k < obs::kNumProfKinds; ++k) {
    if (name == obs::prof_kind_name(static_cast<obs::ProfKind>(k))) {
      kind = static_cast<obs::ProfKind>(k);
      return true;
    }
  }
  return false;
}

/// Reverse of cost_phase_name; unknown tokens fold into kOther.
std::uint8_t parse_phase(const std::string& name) {
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    if (name == obs::cost_phase_name(static_cast<obs::CostPhase>(p))) {
      return static_cast<std::uint8_t>(p);
    }
  }
  return static_cast<std::uint8_t>(obs::CostPhase::kOther);
}

std::string phase_name(std::size_t p) {
  return std::string(obs::cost_phase_name(static_cast<obs::CostPhase>(p)));
}

/// Per-worker busy fraction over fixed wall-time buckets, from the task
/// events (clipped to bucket boundaries). Truncated rings understate early
/// buckets — the caller prints a truncation note in that case.
charts::HeatmapSpec timeline_heatmap(const obs::ProfileData& data,
                                     std::size_t buckets) {
  charts::HeatmapSpec spec;
  spec.aria_label = "per-worker busy-fraction timeline";
  spec.corner_label = "wall time \xE2\x86\x92";
  const std::uint64_t wall = std::max<std::uint64_t>(1, data.wall_ns);
  const double bucket_ns =
      static_cast<double>(wall) / static_cast<double>(buckets);
  const auto at_ms = [bucket_ns](std::size_t b) {
    return html::axis_label(
        ms_of(static_cast<std::uint64_t>(bucket_ns * static_cast<double>(b))));
  };
  for (std::size_t b = 0; b < buckets; ++b) {
    // Sparse labels: every eighth bucket, as the time it starts at.
    spec.col_labels.push_back(b % 8 == 0 ? at_ms(b) + "ms" : std::string());
  }
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    spec.row_labels.push_back("w" + std::to_string(w));
    std::vector<double> busy(buckets, 0.0);
    for (const obs::ProfileEvent& ev : data.workers[w].events) {
      if (ev.kind != obs::ProfKind::kTask || ev.dur_ns == 0) continue;
      const double t0 = static_cast<double>(ev.start_ns);
      const double t1 = static_cast<double>(ev.start_ns + ev.dur_ns);
      const std::size_t b0 = std::min(
          buckets - 1, static_cast<std::size_t>(t0 / bucket_ns));
      const std::size_t b1 = std::min(
          buckets - 1, static_cast<std::size_t>(t1 / bucket_ns));
      for (std::size_t b = b0; b <= b1; ++b) {
        const double lo = bucket_ns * static_cast<double>(b);
        const double overlap = std::min(t1, lo + bucket_ns) - std::max(t0, lo);
        if (overlap > 0) busy[b] += overlap;
      }
    }
    for (std::size_t b = 0; b < buckets; ++b) {
      const double frac = std::min(1.0, busy[b] / bucket_ns);
      spec.values.push_back(frac);
      spec.present.push_back(1);
      spec.cell_text.emplace_back();
      spec.titles.push_back("worker " + std::to_string(w) + ", " + at_ms(b) +
                            "-" + at_ms(b + 1) + " ms — busy " +
                            fnum(frac * 100.0, 1) + "%");
    }
  }
  return spec;
}

/// Phase palette: the six series classes, one per CostPhase in enum order.
std::string phase_cls(std::size_t p) {
  return "s" + std::to_string(p % 6 + 1);
}

void profile_tiles(std::ostringstream& out, const obs::ProfileData& data) {
  tile(out, std::to_string(data.workers.size()), "pool workers");
  tile(out, fnum(data.utilization() * 100.0, 1) + "%", "mean utilization");
  tile(out, fnum(data.serial_fraction() * 100.0, 1) + "%", "serial fraction");
  tile(out,
       fnum(data.predicted_speedup(std::max(1u, data.hardware_concurrency)),
            2),
       "Amdahl bound @ hw");
  tile(out, fnum(mib(data.memory.peak_rss_end_bytes), 1) + " MiB",
       "peak RSS");
}

void profile_sections(std::ostringstream& out, const obs::ProfileData& data) {
  out << "<section>\n<h2>Worker timeline</h2>\n<p class=\"note\">"
      << data.workers.size() << " pool workers, hw concurrency "
      << data.hardware_concurrency << ", wall " << fnum(ms_of(data.wall_ns), 1)
      << " ms, " << data.rounds << " rounds, " << data.forks
      << " fork-join regions. Busy fraction per worker over wall time (task "
         "execution only; gaps are dequeue idle or barrier stall).";
  if (data.truncated()) {
    std::uint64_t dropped = 0;
    for (const obs::WorkerProfile& w : data.workers) dropped += w.dropped;
    out << " Timeline truncated: " << dropped
        << " oldest event(s) overwrote the per-worker rings (capacity "
        << data.ring_capacity << "); the summary tables stay exact.";
  }
  if (data.off_lane_events > 0) {
    out << " " << data.off_lane_events
        << " emission(s) arrived from unregistered threads and were "
           "dropped.";
  }
  out << "</p>\n";
  charts::heatmap(out, timeline_heatmap(data, 48));
  out << "</section>\n";

  out << "<section>\n<h2>Phase breakdown</h2>\n"
         "<p class=\"note\">busy milliseconds per worker, stacked by "
         "protocol phase</p>\n";
  charts::Legend legend;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    legend.emplace_back(phase_cls(p), phase_name(p));
  }
  std::vector<charts::BarSlot> slots;
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    charts::BarSlot slot;
    slot.id = w;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      const std::uint64_t busy = data.workers[w].phase_busy_ns[p];
      if (busy == 0) continue;
      slot.segs.push_back(
          {phase_cls(p), ms_of(busy),
           "worker " + std::to_string(w) + " — " + phase_name(p) + " " +
               ms(busy) + " ms (" +
               std::to_string(data.workers[w].phase_items[p]) + " items)"});
    }
    slots.push_back(std::move(slot));
  }
  charts::stacked_bars(out, "busy ms per worker by phase", legend, slots,
                       "worker");
  out << "<table><tr><th>worker</th><th>tasks</th><th>items</th>"
         "<th>busy ms</th><th>idle ms</th><th>barrier ms</th>"
         "<th>dropped</th></tr>\n";
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    const obs::WorkerProfile& wp = data.workers[w];
    out << "<tr><td>w" << w << "</td><td>" << wp.tasks << "</td><td>"
        << wp.items << "</td><td>" << ms(wp.busy_ns) << "</td><td>"
        << ms(wp.idle_ns) << "</td><td>" << ms(wp.barrier_ns) << "</td><td>"
        << wp.dropped << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";

  out << "<section>\n<h2>Barrier stalls</h2>\n"
         "<p class=\"note\">time the fork-join caller spent waiting for the "
         "last worker to drain, by phase (load imbalance shows up here)"
         "</p>\n<table><tr><th>phase</th><th>stalls</th><th>total ms</th>"
         "<th>mean ms</th><th>max ms</th></tr>\n";
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
    for (const obs::WorkerProfile& w : data.workers) {
      for (const obs::ProfileEvent& ev : w.events) {
        if (ev.kind != obs::ProfKind::kBarrier || ev.phase != p) continue;
        ++count;
        total += ev.dur_ns;
        max = std::max(max, ev.dur_ns);
      }
    }
    if (count == 0) continue;
    out << "<tr><td>" << phase_name(p) << "</td><td>" << count << "</td><td>"
        << fnum(ms_of(total), 3) << "</td><td>"
        << fnum(ms_of(total) / static_cast<double>(count), 3) << "</td><td>"
        << fnum(ms_of(max), 3) << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";

  out << "<section>\n<h2>Parallel efficiency</h2>\n"
         "<p class=\"note\">Amdahl projection from the measured serial "
         "fraction (wall time outside any fork-join region); measure the "
         "real curve with `bench_ablation_parallel`</p>\n"
         "<table><tr><th>threads</th><th>predicted speedup</th>"
         "<th>predicted efficiency</th></tr>\n";
  std::set<unsigned> ladder = {2, 4, 8};
  if (data.hardware_concurrency > 1) ladder.insert(data.hardware_concurrency);
  for (const unsigned n : ladder) {
    const double sp = data.predicted_speedup(n);
    out << "<tr><td>" << n << (n == data.hardware_concurrency ? " (hw)" : "")
        << "</td><td>" << fnum(sp, 2) << "</td><td>"
        << fnum(sp / static_cast<double>(n) * 100.0, 1) << "%</td></tr>\n";
  }
  out << "</table>\n</section>\n";

  out << "<section>\n<h2>Memory</h2>\n";
  const std::vector<obs::MemorySample>& samples = data.memory.samples;
  if (!samples.empty()) {
    out << "<p class=\"note\">peak RSS (monotone high-water) at each "
           "sampled boundary</p>\n";
    charts::LineChartSpec spec;
    spec.aria_label = "memory over sampled boundaries";
    spec.legend = {{"line1", "peak RSS MiB"}};
    spec.axis_name = "sample";
    charts::LineSeries rss;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const obs::MemorySample& s = samples[i];
      const std::string at = "sample " + std::to_string(i + 1) + " @ " +
                             fnum(ms_of(s.t_ns), 1) + " ms — ";
      spec.slot_ids.push_back(i + 1);
      rss.values.push_back(mib(s.peak_rss_bytes));
      rss.titles.push_back(at + "peak RSS " + fnum(mib(s.peak_rss_bytes), 1) +
                           " MiB");
    }
    spec.lines = {std::move(rss)};
    charts::line_chart(out, spec);
  }
  const obs::MemoryTelemetry& m = data.memory;
  out << "<table class=\"kv\">\n"
      << "<tr><td>peak RSS at begin</td><td>"
      << fnum(mib(m.peak_rss_begin_bytes), 1) << " MiB</td></tr>\n"
      << "<tr><td>peak RSS at end</td><td>"
      << fnum(mib(m.peak_rss_end_bytes), 1) << " MiB</td></tr>\n"
      << "</table>\n</section>\n";
}

// ==================================================== node-telemetry sections

/// The node stream's header fields plus positions, index = node id.
struct NodeView {
  std::size_t nodes = 0;
  std::uint64_t rounds = 0;
  double tx_energy = 0.0;  ///< the energy model the header echoes
  double rx_energy = 0.0;
  double idle_energy = 0.0;
  std::vector<obs::NodePosition> positions;
  std::size_t placed = 0;  ///< node_pos records with a valid id
};

NodeView node_view_of(const Bundle& b) {
  NodeView v;
  const obs::JsonRecord& h = b.of("node_telemetry_header").front();
  v.nodes = static_cast<std::size_t>(h.u64("nodes"));
  v.rounds = h.u64("rounds");
  v.tx_energy = h.number("energy_tx", obs::kTxEnergy);
  v.rx_energy = h.number("energy_rx", obs::kRxEnergy);
  v.idle_energy = h.number("energy_idle", obs::kIdleEnergy);
  for (const obs::JsonRecord& rec : b.of("node_pos")) {
    const auto node = static_cast<std::size_t>(rec.u64("node"));
    if (node >= v.nodes) continue;
    if (v.positions.empty()) v.positions.resize(v.nodes);
    v.positions[node] = {rec.number("x"), rec.number("y")};
    ++v.placed;
  }
  return v;
}

/// Per-node scalar from the node_summary rows (key_a + key_b), by node id.
std::vector<double> per_node(const Bundle& b, const NodeView& view,
                             const std::string& key_a,
                             const std::string& key_b = "") {
  std::vector<double> values(view.nodes, 0.0);
  for (const obs::JsonRecord& rec : b.of("node_summary")) {
    const auto v = static_cast<std::size_t>(rec.u64("node"));
    if (v >= values.size()) continue;
    values[v] = rec.number(key_a) + (key_b.empty() ? 0.0 : rec.number(key_b));
  }
  return values;
}

/// The deployment overlay: every node as a dot at its embedded position,
/// shaded by `values[v]` as fill opacity over the heatmap series color.
/// Opacity starts from a floor so zero-traffic nodes stay visible.
void emit_spatial_overlay(std::ostringstream& out, const NodeView& view,
                          const std::vector<double>& values,
                          const std::string& what) {
  constexpr double kW = 760.0;
  constexpr double kH = 380.0;
  constexpr double kPad = 16.0;
  double min_x = view.positions[0].x, max_x = view.positions[0].x;
  double min_y = view.positions[0].y, max_y = view.positions[0].y;
  for (const obs::NodePosition& p : view.positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  // One uniform scale for both axes keeps the deployment's aspect ratio.
  const double scale =
      std::min(span_x > 0.0 ? (kW - 2 * kPad) / span_x : 1.0,
               span_y > 0.0 ? (kH - 2 * kPad) / span_y : 1.0);
  const double off_x = kPad + ((kW - 2 * kPad) - span_x * scale) / 2.0;
  const double off_y = kPad + ((kH - 2 * kPad) - span_y * scale) / 2.0;
  double max_v = 0.0;
  for (const double v : values) max_v = std::max(max_v, v);

  out << "<svg viewBox=\"0 0 " << fnum(kW, 0) << ' ' << fnum(kH, 0)
      << "\" role=\"img\" aria-label=\"" << escape(what) << "\">\n";
  for (std::size_t v = 0; v < view.positions.size(); ++v) {
    const obs::NodePosition& p = view.positions[v];
    const double cx = off_x + (p.x - min_x) * scale;
    // SVG y grows downward; flip so the overlay matches the embedding.
    const double cy = kH - (off_y + (p.y - min_y) * scale);
    const double t = max_v > 0.0 ? values[v] / max_v : 0.0;
    out << "<circle class=\"hm\" cx=\"" << fnum(cx, 1) << "\" cy=\""
        << fnum(cy, 1) << "\" r=\"3.5\" fill-opacity=\""
        << fnum(0.12 + 0.88 * t, 3) << "\"><title>node " << v << " — "
        << escape(what) << ' ' << fnum(values[v], 2) << "</title></circle>\n";
  }
  out << "</svg>\n";
}

/// The n×n link matrix bucketed down to at most 32×32 bins so paper-scale
/// deployments stay readable; each bin sums the links it covers.
void emit_link_heatmap(std::ostringstream& out, const Bundle& b,
                       std::size_t n) {
  constexpr std::size_t kMaxBins = 32;
  const std::size_t bucket = (n + kMaxBins - 1) / kMaxBins;
  const std::size_t bins = (n + bucket - 1) / bucket;
  std::vector<double> cells(bins * bins, 0.0);
  for (const obs::JsonRecord& rec : b.of("link")) {
    const std::size_t from = static_cast<std::size_t>(rec.u64("from")) / bucket;
    const std::size_t to = static_cast<std::size_t>(rec.u64("to")) / bucket;
    if (from >= bins || to >= bins) continue;
    cells[from * bins + to] += rec.number("messages");
  }
  const auto bin_label = [&](std::size_t i) {
    if (bucket == 1) return std::to_string(i);
    const std::size_t lo = i * bucket;
    return std::to_string(lo) + "-" +
           std::to_string(std::min(n, lo + bucket) - 1);
  };
  charts::HeatmapSpec spec;
  spec.aria_label = "link traffic matrix";
  spec.corner_label = "from \\ to";
  for (std::size_t i = 0; i < bins; ++i) {
    spec.col_labels.push_back(bin_label(i));
    spec.row_labels.push_back(bin_label(i));
  }
  for (std::size_t r = 0; r < bins; ++r) {
    for (std::size_t c = 0; c < bins; ++c) {
      const double v = cells[r * bins + c];
      spec.values.push_back(v);
      spec.present.push_back(v > 0.0 ? 1 : 0);
      spec.cell_text.emplace_back(bins <= 16 && v > 0.0 ? fnum(v, 0) : "");
      spec.titles.push_back("from " + bin_label(r) + " to " + bin_label(c) +
                            " — " + fnum(v, 0) + " message(s)");
    }
  }
  charts::heatmap(out, spec);
}

void node_tiles(std::ostringstream& out, const Bundle& b,
                const NodeView& view) {
  tile(out, std::to_string(view.nodes), "nodes");
  tile(out, std::to_string(view.rounds), "telemetry rounds");
  if (!b.has("telemetry_summary")) return;
  const obs::JsonRecord& s = b.of("telemetry_summary").back();
  tile(out, std::to_string(s.u64("sent")), "messages sent");
  tile(out, std::to_string(s.u64("lost") + s.u64("dropped")),
       "lost + dropped");
  tile(out, fnum(s.number("max_node_energy"), 1),
       "max node energy (node " + std::to_string(s.u64("max_energy_node")) +
           ")");
  tile(out, fnum(s.number("traffic_gini"), 3), "traffic Gini");
}

void node_sections(std::ostringstream& out, const Bundle& b,
                   const NodeView& view) {
  out << "<section>\n<h2>Energy model</h2>\n<p class=\"note\">first-order "
         "radio charge per node: tx "
      << fnum(view.tx_energy, 3) << " per send, rx "
      << fnum(view.rx_energy, 3) << " per delivery, idle "
      << fnum(view.idle_energy, 3)
      << " per awake round</p>\n</section>\n";

  if (view.nodes > 0 && view.placed == view.nodes) {
    out << "<section>\n<h2>Spatial hotspots</h2>\n"
           "<p class=\"note\">deployment overlay, node opacity ∝ total "
           "traffic (sent + received) — dark clusters are the relay "
           "bottlenecks</p>\n";
    emit_spatial_overlay(out, view, per_node(b, view, "sent", "received"),
                         "traffic");
    out << "<p class=\"note\">the same overlay shaded by accumulated energy "
           "— where the first battery deaths will happen</p>\n";
    emit_spatial_overlay(out, view, per_node(b, view, "energy"), "energy");
    out << "</section>\n";
  }

  if (b.has("link") && view.nodes > 0) {
    out << "<section>\n<h2>Link traffic</h2>\n<p class=\"note\">directed "
           "message counts, sender rows × receiver columns";
    if (view.nodes > 32) out << ", bucketed into node-range bins";
    out << "</p>\n";
    emit_link_heatmap(out, b, view.nodes);
    out << "</section>\n";
  }

  if (b.has("node_round")) {
    struct RoundTotals {
      double sent = 0.0, received = 0.0, energy = 0.0;
      double backlog = 0.0;  ///< max over nodes, not a sum — it is a depth
    };
    std::map<std::uint64_t, RoundTotals> rounds;
    for (const obs::JsonRecord& rec : b.of("node_round")) {
      RoundTotals& t = rounds[rec.u64("round")];
      t.sent += rec.number("sent");
      t.received += rec.number("received");
      t.backlog = std::max(t.backlog, rec.number("backlog"));
      t.energy += rec.number("energy");
    }
    charts::LineChartSpec traffic;
    traffic.aria_label = "per-round traffic";
    traffic.legend = {{"line1", "sent"}, {"line2", "received"}};
    charts::LineSeries sent_line;
    charts::LineSeries recv_line;
    recv_line.series = "2";
    charts::LineChartSpec backlog;
    backlog.aria_label = "per-round synchronizer backlog";
    backlog.legend = {{"line3", "peak backlog depth"}};
    charts::LineSeries backlog_line;
    backlog_line.series = "3";
    charts::LineChartSpec energy;
    energy.aria_label = "per-round energy";
    energy.legend = {{"line1", "energy spent"}};
    charts::LineSeries energy_line;
    for (const auto& [round, t] : rounds) {
      const std::string at = round_title(round);
      traffic.slot_ids.push_back(round);
      sent_line.values.push_back(t.sent);
      sent_line.titles.push_back(at + fnum(t.sent, 0) + " sent");
      recv_line.values.push_back(t.received);
      recv_line.titles.push_back(at + fnum(t.received, 0) + " received");
      backlog.slot_ids.push_back(round);
      backlog_line.values.push_back(t.backlog);
      backlog_line.titles.push_back(at + "depth " + fnum(t.backlog, 0));
      energy.slot_ids.push_back(round);
      energy_line.values.push_back(t.energy);
      energy_line.titles.push_back(at + fnum(t.energy, 2) + " energy");
    }
    traffic.lines = {sent_line, recv_line};
    backlog.lines = {backlog_line};
    energy.lines = {energy_line};
    out << "<section>\n<h2>Convergence</h2>\n"
           "<p class=\"note\">messages per round — round 0 is the k-hop "
           "setup phase, the tail is the protocol draining</p>\n";
    charts::line_chart(out, traffic);
    out << "<p class=\"note\">deepest α-synchronizer inbox backlog observed "
           "in each round (lossy async runs only)</p>\n";
    charts::line_chart(out, backlog);
    out << "<p class=\"note\">energy drawn per round across all nodes "
           "(traffic charges + idle listening)</p>\n";
    charts::line_chart(out, energy);
    out << "</section>\n";
  }

  if (b.has("talker")) {
    out << "<section>\n<h2>Top talkers</h2>\n"
           "<table><tr><th>rank</th><th>node</th><th>traffic</th>"
           "<th>energy</th></tr>\n";
    for (const obs::JsonRecord& rec : b.of("talker")) {
      out << "<tr><td>" << rec.u64("rank") << "</td><td>" << rec.u64("node")
          << "</td><td>" << rec.u64("traffic") << "</td><td>"
          << fnum(rec.number("energy"), 2) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  if (b.has("node_summary")) {
    constexpr std::size_t kMaxRows = 50;
    std::vector<const obs::JsonRecord*> hottest;
    for (const obs::JsonRecord& rec : b.of("node_summary")) {
      hottest.push_back(&rec);
    }
    const auto traffic = [](const obs::JsonRecord* r) {
      return r->u64("sent") + r->u64("received");
    };
    std::stable_sort(hottest.begin(), hottest.end(),
                     [&](const obs::JsonRecord* a, const obs::JsonRecord* c) {
                       if (traffic(a) != traffic(c)) {
                         return traffic(a) > traffic(c);
                       }
                       return a->u64("node") < c->u64("node");
                     });
    const std::size_t total = hottest.size();
    if (hottest.size() > kMaxRows) hottest.resize(kMaxRows);
    out << "<section>\n<h2>Hottest nodes</h2>\n<p class=\"note\">top "
        << hottest.size() << " of " << total
        << " nodes by total traffic</p>\n"
           "<table><tr><th>node</th><th>sent</th><th>received</th>"
           "<th>lost</th><th>dropped</th><th>retransmits</th>"
           "<th>backlog peak</th><th>rounds awake</th><th>energy</th>"
           "</tr>\n";
    for (const obs::JsonRecord* rec : hottest) {
      out << "<tr><td>" << rec->u64("node") << "</td>";
      for (const char* key : {"sent", "received", "lost", "dropped",
                              "retransmits", "backlog_peak", "rounds_active"}) {
        out << "<td>" << rec->u64(key) << "</td>";
      }
      out << "<td>" << fnum(rec->number("energy"), 2) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }
}

// ======================================================= quality sections

void quality_tiles(std::ostringstream& out, const Bundle& b) {
  if (!b.has("quality_summary")) return;
  const bool bounded = b.of("quality_header").front().u64("bound_finite") != 0;
  const obs::JsonRecord& s = b.of("quality_summary").back();
  tile(out, fnum(s.number("min_coverage_fraction"), 4),
       "min coverage fraction");
  tile(out, fnum(s.number("max_hole_diameter"), 3), "worst hole diameter");
  if (bounded) {
    tile(out, fnum(s.number("bound_margin"), 3), "min bound margin");
    tile(out, std::to_string(s.u64("violations")), "bound violations");
  }
  tile(out, std::to_string(s.u64("final_certifiable_tau")),
       "final certifiable τ");
}

void quality_sections(std::ostringstream& out, const Bundle& b) {
  const obs::JsonRecord& header = b.of("quality_header").front();
  const std::vector<obs::JsonRecord>& rounds = b.of("quality_round");
  const bool bounded = header.u64("bound_finite") != 0;
  const double bound = bounded ? header.number("bound") : 0.0;

  out << "<section>\n<h2>Coverage</h2>\n<p class=\"note\">"
      << rounds.size() << " sampled round(s) at τ=" << header.u64("tau")
      << ", rs=" << fnum(header.number("rs"), 3)
      << ", γ=" << fnum(header.number("gamma"), 3)
      << ". Fraction of target-area cells covered by the awake set — the "
         "schedule's geometric SLO</p>\n";
  charts::LineChartSpec cov;
  cov.aria_label = "per-round coverage fraction";
  cov.legend = {{"line1", "coverage fraction"}};
  charts::LineSeries cov_line;
  charts::LineChartSpec conn;
  conn.aria_label = "per-round awake-set components";
  conn.legend = {{"line3", "awake components"}};
  charts::LineSeries conn_line;
  conn_line.series = "3";
  charts::LineChartSpec holes;
  holes.aria_label = "per-round largest hole diameter vs τ-confine bound";
  holes.legend = {{"line1", "largest hole diameter"}};
  if (bounded) holes.legend.push_back({"line2", "Proposition 1 bound"});
  charts::LineSeries hole_line;
  charts::LineSeries bound_line;
  bound_line.series = "2";
  charts::LineChartSpec margin;
  margin.aria_label = "per-round bound margin";
  margin.legend = {{"line3", "bound − hole diameter"}};
  charts::LineSeries margin_line;
  margin_line.series = "3";
  for (const obs::JsonRecord& rec : rounds) {
    const std::uint64_t round = rec.u64("round");
    const std::string at = round_title(round);
    cov.slot_ids.push_back(round);
    cov_line.values.push_back(rec.number("coverage_fraction"));
    cov_line.titles.push_back(at + fnum(rec.number("coverage_fraction"), 4) +
                              " covered");
    conn.slot_ids.push_back(round);
    conn_line.values.push_back(rec.number("components"));
    conn_line.titles.push_back(at + fnum(rec.number("components"), 0) +
                               " component(s)");
    const double d = rec.number("max_hole_diameter");
    holes.slot_ids.push_back(round);
    hole_line.values.push_back(d);
    hole_line.titles.push_back(at + "hole " + fnum(d, 3));
    if (bounded) {
      bound_line.values.push_back(bound);
      bound_line.titles.push_back(at + "bound " + fnum(bound, 3));
      margin.slot_ids.push_back(round);
      margin_line.values.push_back(rec.number("bound_margin"));
      margin_line.titles.push_back(at + "margin " +
                                   fnum(rec.number("bound_margin"), 3));
    }
  }
  cov.lines = {cov_line};
  conn.lines = {conn_line};
  charts::line_chart(out, cov);
  out << "<p class=\"note\">connected components of the awake-induced "
         "subgraph (1 = the survivors still relay for each other)</p>\n";
  charts::line_chart(out, conn);
  out << "</section>\n";

  out << "<section>\n<h2>Holes vs bound</h2>\n"
         "<p class=\"note\">largest coverage-hole diameter each sampled "
         "round";
  if (bounded) {
    out << " against the (τ−2)·Rc bound of Proposition 1 — Fig. 6's claim as "
           "a continuously checked invariant";
  }
  out << "</p>\n";
  holes.lines = {hole_line};
  if (bounded) holes.lines.push_back(bound_line);
  charts::line_chart(out, holes);
  if (bounded) {
    margin.lines = {margin_line};
    out << "<p class=\"note\">remaining slack under the bound — a dip toward "
           "zero is the early warning, a negative value is a violation</p>\n";
    charts::line_chart(out, margin);
  }
  out << "</section>\n";

  std::uint64_t buckets = 0;
  for (const obs::JsonRecord& rec : rounds) {
    buckets = std::max(buckets, std::min(rec.u64("k_buckets"), kMaxKBuckets));
  }
  if (buckets > 0) {
    const auto bucket_label = [&](std::uint64_t k) {
      return std::string(k + 1 == buckets ? "k≥" : "k=") + std::to_string(k);
    };
    charts::HeatmapSpec spec;
    spec.aria_label = "k-coverage histogram per round";
    spec.corner_label = "k \\ round";
    for (const obs::JsonRecord& rec : rounds) {
      spec.col_labels.push_back(std::to_string(rec.u64("round")));
    }
    for (std::uint64_t k = 0; k < buckets; ++k) {
      spec.row_labels.push_back(bucket_label(k));
      for (const obs::JsonRecord& rec : rounds) {
        const double v = rec.number("k" + std::to_string(k));
        spec.values.push_back(v);
        spec.present.push_back(v > 0.0 ? 1 : 0);
        spec.cell_text.emplace_back(
            rounds.size() <= 16 && v > 0.0 ? fnum(v, 0) : "");
        spec.titles.push_back("round " + std::to_string(rec.u64("round")) +
                              ", " + bucket_label(k) + " — " + fnum(v, 0) +
                              " cell(s)");
      }
    }
    out << "<section>\n<h2>k-coverage</h2>\n"
           "<p class=\"note\">target-area cells by covering multiplicity — "
           "mass drains from high k toward k=1 as redundant sensors go to "
           "sleep</p>\n";
    charts::heatmap(out, spec);
    out << "</section>\n";
  }

  if (b.has("bound_violation")) {
    out << "<section>\n<h2>Bound violations</h2>\n<p class=\"note\">rounds "
           "whose largest hole exceeded the Proposition 1 bound — the "
           "schedule gave up more coverage than the paper's invariant "
           "allows</p>\n"
           "<table><tr><th>round</th><th>hole diameter</th><th>bound</th>"
           "<th>excess</th></tr>\n";
    for (const obs::JsonRecord& rec : b.of("bound_violation")) {
      out << "<tr><td>" << rec.u64("round") << "</td><td>"
          << fnum(rec.number("max_hole_diameter"), 3) << "</td><td>"
          << fnum(rec.number("bound"), 3) << "</td><td>"
          << fnum(rec.number("excess"), 3) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }
}

// ========================================================= fleet sections

/// Facet key: every axis except the two the heatmap spans (nodes × tau).
using FacetKey = std::tuple<std::string, std::string, std::string>;

/// Axis values rendered with one fixed precision, so map keys group
/// identically to the emitted records.
std::string axis_text(const obs::JsonRecord& rec, const std::string& key) {
  return html::axis_label(rec.number(key));
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct CellStats {
  std::vector<double> awake;  ///< per-seed awake ratios, seed-ascending
  std::vector<double> cost;   ///< per-seed logical costs, seed-ascending
};

struct Facet {
  // (nodes, tau) -> across-seed stats; keys are numeric for correct order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, CellStats> cells;
  std::set<std::uint64_t> nodes;
  std::set<std::uint64_t> taus;
};

std::string cell_name(std::uint64_t n, std::uint64_t tau) {
  return "n=" + std::to_string(n) + " tau=" + std::to_string(tau);
}

void emit_facet_heatmap(std::ostringstream& out, const Facet& facet,
                        const std::string& what, bool use_cost) {
  charts::HeatmapSpec spec;
  spec.aria_label = what;
  spec.corner_label = "tau";
  for (const std::uint64_t tau : facet.taus) {
    spec.col_labels.push_back("tau " + std::to_string(tau));
  }
  for (const std::uint64_t n : facet.nodes) {
    spec.row_labels.push_back("n " + std::to_string(n));
    for (const std::uint64_t tau : facet.taus) {
      const auto it = facet.cells.find({n, tau});
      if (it == facet.cells.end()) {
        spec.values.push_back(0.0);
        spec.present.push_back(0);
        spec.cell_text.emplace_back();
        spec.titles.push_back(cell_name(n, tau) + " — no runs");
        continue;
      }
      const CellStats& c = it->second;
      const double v = use_cost ? mean(c.cost) : mean(c.awake);
      spec.values.push_back(v);
      spec.present.push_back(1);
      spec.cell_text.push_back(use_cost ? html::axis_label(v) : fnum(v, 3));
      spec.titles.push_back(cell_name(n, tau) + " — " + what + " " +
                            fnum(v, use_cost ? 0 : 4) + " over " +
                            std::to_string(c.awake.size()) + " seed(s)");
    }
  }
  charts::heatmap(out, spec);
}

void emit_sparkline_table(std::ostringstream& out, const Facet& facet) {
  out << "<table><tr><th>awake ratio by seed</th>";
  for (const std::uint64_t tau : facet.taus) {
    out << "<th>tau " << tau << "</th>";
  }
  out << "</tr>\n";
  for (const std::uint64_t n : facet.nodes) {
    out << "<tr><td>n " << n << "</td>";
    for (const std::uint64_t tau : facet.taus) {
      const auto it = facet.cells.find({n, tau});
      out << "<td>";
      if (it != facet.cells.end()) {
        std::string title = cell_name(n, tau) + " awake ratio across " +
                            std::to_string(it->second.awake.size()) +
                            " seed(s):";
        for (const double v : it->second.awake) {
          title += ' ';
          title += fnum(v, 3);
        }
        out << charts::sparkline(it->second.awake, title);
      }
      out << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

void fleet_tiles(std::ostringstream& out, const Bundle& b) {
  std::size_t failed = 0;
  std::uint64_t total_cost = 0;
  std::uint64_t total_messages = 0;
  for (const obs::JsonRecord& rec : b.of("run")) {
    if (rec.text("status") != "ok") {
      ++failed;
      continue;
    }
    total_cost += rec.u64("logical_cost");
    total_messages += rec.u64("messages");
  }
  tile(out, std::to_string(b.of("run").size()), "campaign runs");
  tile(out, std::to_string(failed), "failed");
  tile(out, std::to_string(total_cost), "total logical cost");
  tile(out, std::to_string(total_messages), "total messages");
}

/// Facet heatmaps (awake-set ratio and logical cost over n × τ, one facet
/// per model/degree/loss), across-seed sparklines, the failure table, and
/// the run table. Only machine-independent fields enter the page (wall time
/// and worker lanes never do), so it is identical across worker counts.
void fleet_sections(std::ostringstream& out, const Bundle& b) {
  std::map<FacetKey, Facet> facets;
  std::vector<const obs::JsonRecord*> failed;
  for (const obs::JsonRecord& rec : b.of("run")) {
    if (rec.text("status") != "ok") {
      failed.push_back(&rec);
      continue;
    }
    Facet& f = facets[{rec.text("model"), axis_text(rec, "degree"),
                       axis_text(rec, "loss")}];
    const std::uint64_t n = rec.u64("nodes");
    const std::uint64_t tau = rec.u64("tau");
    f.nodes.insert(n);
    f.taus.insert(tau);
    // Records are run-id sorted; within a cell that is seed-axis order, so
    // the sparklines read left-to-right across the seed list.
    CellStats& cell = f.cells[{n, tau}];
    cell.awake.push_back(rec.number("awake_ratio"));
    cell.cost.push_back(rec.number("logical_cost"));
  }
  for (const auto& [key, facet] : facets) {
    out << "<section>\n<h2>"
        << escape("model " + std::get<0>(key) + ", degree " +
                  std::get<1>(key) + ", loss " + std::get<2>(key))
        << "</h2>\n<p class=\"note\">mean awake-set ratio across seeds "
           "(lower is a smaller duty-cycle)</p>\n";
    emit_facet_heatmap(out, facet, "mean awake ratio", false);
    out << "<p class=\"note\">mean logical cost across seeds "
           "(machine-independent work units)</p>\n";
    emit_facet_heatmap(out, facet, "mean logical cost", true);
    bool many_seeds = false;
    for (const auto& [cell_key, cell] : facet.cells) {
      if (cell.awake.size() > 1) many_seeds = true;
    }
    if (many_seeds) emit_sparkline_table(out, facet);
    out << "</section>\n";
  }

  const auto cell_columns = [&out](const obs::JsonRecord& rec) {
    out << "<tr><td>" << rec.u64("run") << "</td><td>"
        << escape(rec.text("model")) << "</td><td>" << rec.u64("nodes")
        << "</td><td>" << axis_text(rec, "degree") << "</td><td>"
        << rec.u64("tau") << "</td><td>" << axis_text(rec, "loss")
        << "</td><td>" << rec.u64("seed") << "</td>";
  };
  if (!failed.empty()) {
    out << "<section>\n<h2>Failed runs</h2>\n"
           "<table><tr><th>run</th><th>model</th><th>nodes</th>"
           "<th>degree</th><th>tau</th><th>loss</th><th>seed</th>"
           "<th>error</th></tr>\n";
    for (const obs::JsonRecord* rec : failed) {
      cell_columns(*rec);
      out << "<td class=\"bad\">" << escape(rec->text("error"))
          << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  out << "<section>\n<h2>Runs</h2>\n"
         "<table><tr><th>run</th><th>model</th><th>nodes</th><th>degree</th>"
         "<th>tau</th><th>loss</th><th>seed</th><th>awake</th>"
         "<th>ratio</th><th>rounds</th><th>cost</th><th>messages</th>"
         "<th>digest</th></tr>\n";
  for (const obs::JsonRecord& rec : b.of("run")) {
    cell_columns(rec);
    if (rec.text("status") == "ok") {
      out << "<td>" << rec.u64("survivors") << "</td><td>"
          << fnum(rec.number("awake_ratio"), 3) << "</td><td>"
          << rec.u64("rounds") << "</td><td>" << rec.u64("logical_cost")
          << "</td><td>" << rec.u64("messages") << "</td><td>"
          << escape(rec.text("schedule_digest")) << "</td></tr>\n";
    } else {
      out << "<td class=\"bad\" colspan=\"6\">failed: "
          << escape(rec.text("error")) << "</td></tr>\n";
    }
  }
  out << "</table>\n</section>\n";
}

// ============================================================== shared

void section_provenance(std::ostringstream& out, const Bundle& b) {
  out << "<section>\n<h2>Run provenance</h2>\n";
  if (!b.manifest.has_value()) {
    out << "<p class=\"note\">The input carried no embedded manifest; "
           "build identity is unknown.</p>\n</section>\n";
    return;
  }
  const obs::JsonRecord& m = *b.manifest;
  out << "<table class=\"kv\">\n";
  const auto row = [&out](const std::string& key, const std::string& value) {
    out << "<tr><td>" << escape(key) << "</td><td>" << escape(value)
        << "</td></tr>\n";
  };
  for (const char* key : {"tool", "tool_version", "git_sha", "build_type",
                          "compiler", "build_flags", "command"}) {
    if (m.has(key)) row(key, m.text(key));
  }
  for (const auto& [key, value] : m.fields()) {
    if (key.rfind("cfg_", 0) == 0) row("--" + key.substr(4), m.text(key));
  }
  out << "</table>\n</section>\n";
}

}  // namespace

obs::ProfileData profile_of(const Bundle& b) {
  obs::ProfileData data;
  const obs::JsonRecord& h = b.of("profile_header").front();
  data.wall_ns = h.u64("wall_ns");
  data.parallel_ns = h.u64("parallel_ns");
  data.forks = h.u64("forks");
  data.rounds = h.u64("rounds");
  data.off_lane_events = h.u64("off_lane_events");
  data.hardware_concurrency =
      static_cast<unsigned>(h.u64("hardware_concurrency"));
  data.ring_capacity = static_cast<std::size_t>(h.u64("ring_capacity"));
  data.workers.resize(static_cast<std::size_t>(h.u64("workers")));
  for (const obs::JsonRecord& rec : b.of("event")) {
    const auto w = static_cast<std::size_t>(rec.u64("worker"));
    obs::ProfKind kind = obs::ProfKind::kTask;
    if (w >= data.workers.size() || !parse_kind(rec.text("kind"), kind)) {
      continue;
    }
    obs::ProfileEvent ev;
    ev.start_ns = rec.u64("t_ns");
    ev.dur_ns = rec.u64("dur_ns");
    ev.value = rec.u64("value");
    ev.phase = parse_phase(rec.text("phase"));
    ev.kind = kind;
    data.workers[w].events.push_back(ev);
  }
  for (const obs::JsonRecord& rec : b.of("worker_summary")) {
    const auto w = static_cast<std::size_t>(rec.u64("worker"));
    if (w >= data.workers.size()) continue;
    obs::WorkerProfile& wp = data.workers[w];
    wp.tasks = rec.u64("tasks");
    wp.items = rec.u64("items");
    wp.busy_ns = rec.u64("busy_ns");
    wp.idle_ns = rec.u64("idle_ns");
    wp.barrier_ns = rec.u64("barrier_ns");
    wp.dropped = rec.u64("dropped");
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      wp.phase_tasks[p] = rec.u64("tasks_" + phase_name(p));
      wp.phase_items[p] = rec.u64("items_" + phase_name(p));
      wp.phase_busy_ns[p] = rec.u64("busy_ns_" + phase_name(p));
    }
  }
  for (const obs::JsonRecord& rec : b.of("mem_sample")) {
    data.memory.samples.push_back(
        obs::MemorySample{rec.u64("t_ns"), rec.u64("peak_rss_bytes")});
  }
  for (const obs::JsonRecord& rec : b.of("memory_summary")) {
    obs::MemoryTelemetry& m = data.memory;
    m.peak_rss_begin_bytes = rec.u64("peak_rss_begin_bytes");
    m.peak_rss_end_bytes = rec.u64("peak_rss_end_bytes");
  }
  return data;
}

std::string report_refusal(const Bundle& b) {
  if (b.has("profile_header") &&
      b.of("profile_header").front().u64("workers") > kMaxWorkers) {
    return "profile_header in " + b.label + " claims " +
           std::to_string(b.of("profile_header").front().u64("workers")) +
           " workers (at most " + std::to_string(kMaxWorkers) + ")";
  }
  if (b.has("node_telemetry_header")) {
    // The writer emits a summary and a position row for every node.
    const std::uint64_t rows =
        std::max(b.of("node_summary").size(), b.of("node_pos").size());
    const std::uint64_t claimed =
        b.of("node_telemetry_header").front().u64("nodes");
    if (claimed > rows) {
      return "node_telemetry_header in " + b.label + " claims " +
             std::to_string(claimed) + " nodes but the stream has " +
             std::to_string(rows) + " node rows";
    }
  }
  if (has_run_records(b) || has_trace(b) || b.has("profile_header") ||
      b.has("node_telemetry_header") || b.has("quality_header") ||
      b.has("run")) {
    return "";
  }
  // Collector records without the header their section needs.
  constexpr std::pair<std::string_view, std::string_view> kHeaders[] = {
      {"phase_summary", "profile_header"},
      {"node_summary", "node_telemetry_header"},
      {"quality_round", "quality_header"}};
  for (const auto& [member, header] : kHeaders) {
    if (b.has(member)) {
      return "no " + std::string(header) + " record in " + b.label +
             " — its " + std::string(member) + " records cannot render alone";
    }
  }
  return "no telemetry records in " + b.label +
         (b.manifest.has_value() ? " (manifest only)" : "") +
         " — produce a bundle with --obs-out DIR";
}

std::string render_report_text(const Bundle& b, const TraceStats* trace) {
  std::ostringstream out;
  const std::vector<RoundRow> rows = round_rows(b);
  if (!rows.empty()) out << render_round_table(rows);
  if (b.has("cost_total")) out << render_cost_table(cost_rows(b, "cost_total"));
  if (b.has("summary")) {
    const obs::JsonRecord& s = b.of("summary").back();
    std::uint64_t cost = s.u64("logical_cost");
    if (cost == 0) cost = obs::logical_cost(counters_of(s));
    out << "summary: " << s.u64("rounds") << " rounds, " << s.u64("survivors")
        << " survivors, wall "
        << util::Table::num(s.number("wall_ns") / 1e6, 1) << " ms, "
        << s.u64("vpt_tests") << " VPT tests, " << s.u64("messages")
        << " messages, logical cost " << cost << "\n";
  }
  if (trace == nullptr) return out.str();

  const TraceStats& t = *trace;
  for (const std::string& v : t.violations) out << "violation: " << v << "\n";
  out << "trace: " << t.events << " events\n";
  if (t.events > 0) {
    out << "scheduler: " << t.deletion_rounds << " deletion rounds, "
        << t.fixpoint_probes << " fixpoint probe(s), " << t.engine_rounds
        << " engine rounds\n";
    out << "messages: " << t.sends << " sent, " << t.delivers
        << " delivered, " << t.drops << " dropped, " << t.losses << " lost, "
        << t.retransmits << " retransmissions\n";
    out << "causal critical path: " << t.critical_path
        << " message hops to convergence across " << t.deletion_rounds
        << " deletion rounds\n";
    if (t.latency_samples > 0) {
      out << "delivery latency: min " << t.latency_min << ", mean "
          << t.latency_sum / static_cast<double>(t.latency_samples)
          << ", max " << t.latency_max << " (" << t.latency_samples
          << " samples)\n";
    }
    if (t.losses > 0 || t.retransmits > 0) {
      out << "loss recovery: " << t.losses << " transmissions ("
          << t.lost_words << " words) lost on the air, recovered by "
          << t.retransmits << " retransmissions\n";
    }
    if (t.has_traffic) {
      out << "per-node sent: min " << t.sent_min << ", median "
          << t.sent_median << ", max " << t.sent_max << "; received: min "
          << t.recv_min << ", median " << t.recv_median << ", max "
          << t.recv_max << "\n";
    }
    if (!t.busiest.empty()) {
      out << "busiest nodes:";
      for (std::size_t i = 0; i < std::min<std::size_t>(5, t.busiest.size());
           ++i) {
        out << " " << t.busiest[i].second << " (" << t.busiest[i].first << ")";
      }
      out << "\n";
    }
  }
  if (t.violations.empty()) {
    out << "trace OK\n";
  } else {
    out << t.violations.size() << " invariant violation(s)\n";
  }
  return out.str();
}

std::string render_report_html(const Bundle& b, const TraceStats* trace,
                               const std::string& title) {
  std::ostringstream out;
  std::ostringstream sub;
  if (b.manifest.has_value()) {
    const obs::JsonRecord& m = *b.manifest;
    sub << "tgcover " << escape(m.text("command")) << " &#183; "
        << escape(m.text("tool_version", "?")) << " ("
        << escape(m.text("git_sha", "unknown")) << ", "
        << escape(m.text("build_type", "?")) << ")";
  } else {
    sub << "no embedded manifest in the inputs";
  }
  if (b.skipped > 0) {
    sub << " &#183; " << b.skipped << " unreadable line(s) skipped";
  }
  html::page_begin(out, title, sub.str());

  std::optional<obs::ProfileData> profile;
  if (b.has("profile_header")) profile = profile_of(b);
  std::optional<NodeView> nodes;
  if (b.has("node_telemetry_header")) nodes = node_view_of(b);
  const bool quality = b.has("quality_header");

  out << "<div class=\"tiles\">\n";
  run_tiles(out, b);
  if (profile.has_value()) profile_tiles(out, *profile);
  if (nodes.has_value()) node_tiles(out, b, *nodes);
  if (quality) quality_tiles(out, b);
  if (b.has("run")) fleet_tiles(out, b);
  out << "</div>\n";

  section_provenance(out, b);
  if (has_run_records(b)) run_sections(out, b);
  if (trace != nullptr) section_critical_path(out, *trace);
  if (profile.has_value()) profile_sections(out, *profile);
  if (nodes.has_value()) node_sections(out, b, *nodes);
  if (quality) quality_sections(out, b);
  if (b.has("run")) fleet_sections(out, b);

  html::page_end(out);
  return out.str();
}

}  // namespace tgc::app
