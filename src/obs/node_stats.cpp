#include "tgcover/obs/node_stats.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <string>

namespace tgc::obs {

namespace {

/// Fixed-precision double repr shared by every telemetry line — the same
/// %.6f discipline as the HTML/report writers, so streams are
/// byte-deterministic across platforms.
std::string f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::string(buf);
}

}  // namespace

NodeTelemetry::NodeTelemetry(std::size_t num_nodes)
    : nodes_(num_nodes),
      prev_(num_nodes),
      energy_by_node_(num_nodes, 0.0),
      backlog_peak_(num_nodes, 0),
      round_backlog_peak_(num_nodes, 0),
      rounds_active_(num_nodes, 0) {}

void NodeTelemetry::on_send(std::uint32_t from, std::uint32_t to,
                            std::size_t words) {
  NodeCounters& c = nodes_[from];
  ++c.sent;
  c.sent_words += words;
  auto& link = link_traffic_[static_cast<std::uint64_t>(from) * nodes_.size() +
                             to];
  ++link.first;
  link.second += words;
}

void NodeTelemetry::on_deliver(std::uint32_t to, std::uint32_t /*from*/,
                               std::size_t words) {
  NodeCounters& c = nodes_[to];
  ++c.received;
  c.recv_words += words;
}

void NodeTelemetry::on_drop(std::uint32_t from, std::uint32_t /*to*/) {
  ++nodes_[from].dropped;
}

void NodeTelemetry::on_loss(std::uint32_t from, std::uint32_t /*to*/) {
  ++nodes_[from].lost;
}

void NodeTelemetry::on_retransmit(std::uint32_t from, std::uint32_t /*to*/) {
  ++nodes_[from].retransmits;
}

void NodeTelemetry::on_backlog(std::uint32_t node, std::size_t depth) {
  const auto d = static_cast<std::uint64_t>(depth);
  round_backlog_peak_[node] = std::max(round_backlog_peak_[node], d);
  backlog_peak_[node] = std::max(backlog_peak_[node], d);
}

void NodeTelemetry::flush_round_deltas(std::uint64_t round,
                                       const std::vector<bool>* active_mask) {
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    const NodeCounters& cur = nodes_[v];
    const NodeCounters& was = prev_[v];
    NodeCounters delta;
    delta.sent = cur.sent - was.sent;
    delta.received = cur.received - was.received;
    delta.lost = cur.lost - was.lost;
    delta.dropped = cur.dropped - was.dropped;
    delta.retransmits = cur.retransmits - was.retransmits;
    delta.sent_words = cur.sent_words - was.sent_words;
    delta.recv_words = cur.recv_words - was.recv_words;
    const bool active =
        active_mask != nullptr && v < active_mask->size() && (*active_mask)[v];
    double energy = kTxEnergy * static_cast<double>(delta.sent) +
                    kRxEnergy * static_cast<double>(delta.received);
    if (active) {
      energy += kIdleEnergy;
      ++rounds_active_[v];
    }
    energy_by_node_[v] += energy;
    const bool has_traffic = delta.sent != 0 || delta.received != 0 ||
                             delta.lost != 0 || delta.dropped != 0 ||
                             delta.retransmits != 0 ||
                             round_backlog_peak_[v] != 0;
    if (has_traffic) {
      NodeRoundRecord rec;
      rec.round = round;
      rec.node = v;
      rec.delta = delta;
      rec.backlog_peak = round_backlog_peak_[v];
      rec.energy = energy;
      round_records_.push_back(rec);
    }
    prev_[v] = cur;
    round_backlog_peak_[v] = 0;
  }
}

void NodeTelemetry::end_round(std::uint64_t round,
                              const std::vector<bool>& active_mask) {
  flush_round_deltas(round, &active_mask);
  ++rounds_;
  next_round_ = round + 1;
}

void NodeTelemetry::finalize() {
  if (finalized_) return;
  // Residual traffic after the last round boundary (no idle charge — the
  // protocol is over, these are in-flight leftovers).
  flush_round_deltas(next_round_, nullptr);
  finalized_ = true;

  const std::size_t n = nodes_.size();
  links_.n = n;
  links_.row_ptr.assign(n + 1, 0);
  std::vector<std::uint64_t> keys;
  keys.reserve(link_traffic_.size());
  for (const auto& [key, counts] : link_traffic_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  links_.col.reserve(keys.size());
  links_.messages.reserve(keys.size());
  links_.words.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const auto from = static_cast<std::size_t>(key / n);
    const auto& counts = link_traffic_.at(key);
    ++links_.row_ptr[from + 1];
    links_.col.push_back(static_cast<std::uint32_t>(key % n));
    links_.messages.push_back(counts.first);
    links_.words.push_back(counts.second);
  }
  for (std::size_t v = 0; v < n; ++v) {
    links_.row_ptr[v + 1] += links_.row_ptr[v];
  }

  summary_ = {};
  summary_.rounds = rounds_;
  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeCounters& c = nodes_[v];
    summary_.total_sent += c.sent;
    summary_.total_received += c.received;
    summary_.total_lost += c.lost;
    summary_.total_dropped += c.dropped;
    summary_.total_retransmits += c.retransmits;
    summary_.total_sent_words += c.sent_words;
    summary_.total_energy += energy_by_node_[v];
    if (energy_by_node_[v] > summary_.max_node_energy) {
      summary_.max_node_energy = energy_by_node_[v];
      summary_.max_energy_node = v;
    }
  }
  const std::uint64_t accounted =
      summary_.total_received + summary_.total_lost + summary_.total_dropped;
  summary_.undelivered =
      summary_.total_sent > accounted ? summary_.total_sent - accounted : 0;

  // Gini over per-node traffic (sent + received), the standard
  // mean-absolute-difference form on the ascending-sorted series.
  std::vector<std::uint64_t> traffic(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    traffic[v] = nodes_[v].sent + nodes_[v].received;
  }
  std::vector<std::uint64_t> sorted = traffic;
  std::sort(sorted.begin(), sorted.end());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto x = static_cast<double>(sorted[i]);
    weighted += (2.0 * static_cast<double>(i + 1) -
                 static_cast<double>(n) - 1.0) *
                x;
    total += x;
  }
  summary_.traffic_gini =
      total > 0.0 ? weighted / (static_cast<double>(n) * total) : 0.0;

  top_talkers_.clear();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (traffic[a] != traffic[b]) return traffic[a] > traffic[b];
              return a < b;
            });
  for (const std::uint32_t v : order) {
    if (traffic[v] == 0 || top_talkers_.size() >= 10) break;
    top_talkers_.push_back(v);
  }
}

namespace {

void write_node_summary_line(std::ostream& out, const NodeTelemetry& t,
                             std::uint32_t v, const std::uint64_t* run_id) {
  const NodeCounters& c = t.node_counters()[v];
  out << "{\"type\":\"node_summary\",";
  if (run_id != nullptr) out << "\"run\":" << *run_id << ',';
  out << "\"node\":" << v << ",\"sent\":" << c.sent
      << ",\"received\":" << c.received << ",\"lost\":" << c.lost
      << ",\"dropped\":" << c.dropped << ",\"retransmits\":" << c.retransmits
      << ",\"sent_words\":" << c.sent_words
      << ",\"recv_words\":" << c.recv_words
      << ",\"backlog_peak\":" << t.node_backlog_peak()[v]
      << ",\"rounds_active\":" << t.node_rounds_active()[v]
      << ",\"energy\":" << f6(t.node_energy()[v]) << "}\n";
}

void write_summary_line(std::ostream& out, const NodeTelemetry& t,
                        const std::uint64_t* run_id) {
  const NodeTelemetrySummary& s = t.summary();
  out << "{\"type\":\"telemetry_summary\",";
  if (run_id != nullptr) out << "\"run\":" << *run_id << ',';
  out << "\"nodes\":" << t.num_nodes() << ",\"rounds\":" << s.rounds
      << ",\"sent\":" << s.total_sent << ",\"received\":" << s.total_received
      << ",\"lost\":" << s.total_lost << ",\"dropped\":" << s.total_dropped
      << ",\"retransmits\":" << s.total_retransmits
      << ",\"sent_words\":" << s.total_sent_words
      << ",\"undelivered\":" << s.undelivered
      << ",\"total_energy\":" << f6(s.total_energy)
      << ",\"max_node_energy\":" << f6(s.max_node_energy)
      << ",\"max_energy_node\":" << s.max_energy_node
      << ",\"traffic_gini\":" << f6(s.traffic_gini) << "}\n";
}

}  // namespace

void write_node_telemetry_jsonl(const NodeTelemetry& t,
                                std::span<const NodePosition> positions,
                                std::ostream& out) {
  const std::size_t n = t.num_nodes();
  out << "{\"type\":\"node_telemetry_header\",\"version\":1,\"nodes\":" << n
      << ",\"rounds\":" << t.summary().rounds
      << ",\"energy_tx\":" << f6(kTxEnergy)
      << ",\"energy_rx\":" << f6(kRxEnergy)
      << ",\"energy_idle\":" << f6(kIdleEnergy) << "}\n";
  if (positions.size() == n) {
    for (std::uint32_t v = 0; v < n; ++v) {
      out << "{\"type\":\"node_pos\",\"node\":" << v
          << ",\"x\":" << f6(positions[v].x) << ",\"y\":" << f6(positions[v].y)
          << "}\n";
    }
  }
  for (const NodeRoundRecord& r : t.round_records()) {
    out << "{\"type\":\"node_round\",\"round\":" << r.round
        << ",\"node\":" << r.node << ",\"sent\":" << r.delta.sent
        << ",\"received\":" << r.delta.received << ",\"lost\":" << r.delta.lost
        << ",\"dropped\":" << r.delta.dropped
        << ",\"retransmits\":" << r.delta.retransmits
        << ",\"sent_words\":" << r.delta.sent_words
        << ",\"recv_words\":" << r.delta.recv_words
        << ",\"backlog\":" << r.backlog_peak
        << ",\"energy\":" << f6(r.energy) << "}\n";
  }
  const LinkMatrix& links = t.links();
  for (std::size_t from = 0; from < links.n; ++from) {
    for (std::size_t i = links.row_ptr[from]; i < links.row_ptr[from + 1];
         ++i) {
      out << "{\"type\":\"link\",\"from\":" << from
          << ",\"to\":" << links.col[i] << ",\"messages\":" << links.messages[i]
          << ",\"words\":" << links.words[i] << "}\n";
    }
  }
  // Every node gets a summary row even when silent — a silently missing row
  // is how regressions hide, and the gate keys on (node).
  for (std::uint32_t v = 0; v < n; ++v) {
    write_node_summary_line(out, t, v, nullptr);
  }
  const std::vector<std::uint32_t>& talkers = t.top_talkers();
  for (std::size_t i = 0; i < talkers.size(); ++i) {
    const NodeCounters& c = t.node_counters()[talkers[i]];
    out << "{\"type\":\"talker\",\"rank\":" << i + 1
        << ",\"node\":" << talkers[i]
        << ",\"traffic\":" << c.sent + c.received
        << ",\"energy\":" << f6(t.node_energy()[talkers[i]]) << "}\n";
  }
  write_summary_line(out, t, nullptr);
}

void write_node_summary_jsonl(const NodeTelemetry& t, std::uint64_t run_id,
                              std::ostream& out) {
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    write_node_summary_line(out, t, v, &run_id);
  }
  write_summary_line(out, t, &run_id);
}

}  // namespace tgc::obs
