#include "tgcover/app/trace_analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "tgcover/obs/trace.hpp"

namespace tgc::app {

namespace {

std::uint64_t median_of(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

TraceStats analyze_trace(const Bundle& bundle) {
  using K = obs::TraceKind;
  TraceStats stats;
  const auto violation = [&stats](const std::string& what) {
    stats.violations.push_back(what);
  };
  if (bundle.has("trace_header")) stats.header = bundle.of("trace_header")[0];
  const std::vector<obs::TraceEvent>& events = bundle.trace_events;
  stats.events = events.size();

  // ---- Invariant checks (`tgcover report` refuses a violating trace).
  if (!stats.header.has_value()) {
    violation("missing trace_header record");
  } else if (stats.header->u64("events") != events.size()) {
    violation("header claims " + std::to_string(stats.header->u64("events")) +
              " events, file has " + std::to_string(events.size()));
  }
  std::uint64_t prev_seq = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> open_handler;
  std::vector<std::uint64_t> phase_stack;
  bool round_open = false;
  std::unordered_set<std::uint64_t> sent_flows;
  std::unordered_set<std::uint64_t> timer_flows;
  for (const obs::TraceEvent& ev : events) {
    if (ev.seq <= prev_seq) {
      violation("seq " + std::to_string(ev.seq) + " not increasing after " +
                std::to_string(prev_seq));
    }
    prev_seq = ev.seq;
    if (ev.kind == K::kSend) {
      sent_flows.insert(ev.flow);
    } else if (ev.kind == K::kTimerSet) {
      timer_flows.insert(ev.flow);
    } else if (ev.kind == K::kDeliver || ev.kind == K::kDrop ||
               ev.kind == K::kLoss) {
      if (ev.flow != 0 && sent_flows.count(ev.flow) == 0) {
        violation(std::string(obs::trace_kind_name(ev.kind)) + " seq " +
                  std::to_string(ev.seq) +
                  " references unknown send flow " + std::to_string(ev.flow));
      }
    } else if (ev.kind == K::kTimerFire) {
      if (ev.flow != 0 && timer_flows.count(ev.flow) == 0) {
        violation("timer_fire seq " + std::to_string(ev.seq) +
                  " references unknown timer flow " + std::to_string(ev.flow));
      }
    } else if (ev.kind == K::kHandlerBegin) {
      if (!open_handler.emplace(ev.node, ev.seq).second) {
        violation("nested handler_begin at node " + std::to_string(ev.node) +
                  ", seq " + std::to_string(ev.seq));
      }
    } else if (ev.kind == K::kHandlerEnd) {
      if (open_handler.erase(ev.node) == 0) {
        violation("handler_end without begin at node " +
                  std::to_string(ev.node) + ", seq " + std::to_string(ev.seq));
      }
    } else if (ev.kind == K::kPhaseBegin) {
      phase_stack.push_back(ev.type);
    } else if (ev.kind == K::kPhaseEnd) {
      if (phase_stack.empty() || phase_stack.back() != ev.type) {
        violation("unbalanced phase_end (type " + std::to_string(ev.type) +
                  ") at seq " + std::to_string(ev.seq));
      } else {
        phase_stack.pop_back();
      }
    } else if (ev.kind == K::kSchedRoundBegin) {
      if (round_open) violation("sched_round_begin inside an open round");
      round_open = true;
    } else if (ev.kind == K::kSchedRoundEnd) {
      if (!round_open) violation("sched_round_end without begin");
      round_open = false;
    }
  }
  // Deterministic order: open_handler is an unordered_map, so report the
  // leaks sorted by node rather than by hash order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> leaked(
      open_handler.begin(), open_handler.end());
  std::sort(leaked.begin(), leaked.end());
  for (const auto& [node, seq] : leaked) {
    violation("handler at node " + std::to_string(node) + " (seq " +
              std::to_string(seq) + ") never closed");
  }
  if (!phase_stack.empty()) violation("phase never closed");
  if (round_open) violation("scheduler round never closed");

  // ---- Causal critical path: longest send→deliver chain per scheduler
  // segment (segments are separated by sched_round_end — rounds are global
  // barriers, so the critical path to convergence is the sum over segments).
  std::unordered_map<std::uint32_t, std::uint64_t> chain_at_node;
  std::unordered_map<std::uint64_t, std::uint64_t> chain_of_flow;
  std::uint64_t segment_max = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> sent_per_node;
  std::unordered_map<std::uint32_t, std::uint64_t> recv_per_node;
  std::unordered_map<std::uint64_t, double> send_time;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == K::kSend) {
      ++stats.sends;
      ++sent_per_node[ev.node];
      const std::uint64_t depth = chain_at_node[ev.node] + 1;
      chain_of_flow[ev.flow] = depth;
      segment_max = std::max(segment_max, depth);
      send_time[ev.flow] = ev.sim;
    } else if (ev.kind == K::kDeliver) {
      ++stats.delivers;
      ++recv_per_node[ev.node];
      if (ev.flow != 0) {
        const auto it = chain_of_flow.find(ev.flow);
        if (it != chain_of_flow.end()) {
          chain_at_node[ev.node] =
              std::max(chain_at_node[ev.node], it->second);
        }
        const auto st = send_time.find(ev.flow);
        if (st != send_time.end()) {
          const double lat = ev.sim - st->second;
          if (stats.latency_samples == 0 || lat < stats.latency_min) {
            stats.latency_min = lat;
          }
          if (stats.latency_samples == 0 || lat > stats.latency_max) {
            stats.latency_max = lat;
          }
          stats.latency_sum += lat;
          ++stats.latency_samples;
        }
      }
    } else if (ev.kind == K::kDrop) {
      ++stats.drops;
    } else if (ev.kind == K::kLoss) {
      ++stats.losses;
      stats.lost_words += ev.value;
    } else if (ev.kind == K::kRetransmit) {
      ++stats.retransmits;
    } else if (ev.kind == K::kEngineRound) {
      ++stats.engine_rounds;
    } else if (ev.kind == K::kSchedRoundEnd) {
      if (ev.type == 1) {
        ++stats.deletion_rounds;
      } else {
        ++stats.fixpoint_probes;
      }
      stats.segment_hops.push_back(segment_max);
      segment_max = 0;
      chain_at_node.clear();
      chain_of_flow.clear();
    }
  }
  if (segment_max > 0) {  // the pre-round khop segment / a tail
    stats.segment_hops.push_back(segment_max);
  }
  for (const std::uint64_t hops : stats.segment_hops) {
    stats.critical_path += hops;
  }

  // ---- Per-node aggregates.
  std::vector<std::uint64_t> sent_counts, recv_counts;
  for (const auto& [node, c] : sent_per_node) {
    (void)node;
    sent_counts.push_back(c);
  }
  for (const auto& [node, c] : recv_per_node) {
    (void)node;
    recv_counts.push_back(c);
  }
  if (!sent_counts.empty()) {
    stats.has_traffic = true;
    stats.sent_min = *std::min_element(sent_counts.begin(), sent_counts.end());
    stats.sent_median = median_of(sent_counts);
    stats.sent_max = *std::max_element(sent_counts.begin(), sent_counts.end());
    stats.recv_min =
        recv_counts.empty()
            ? 0
            : *std::min_element(recv_counts.begin(), recv_counts.end());
    stats.recv_median = median_of(recv_counts);
    stats.recv_max =
        recv_counts.empty()
            ? 0
            : *std::max_element(recv_counts.begin(), recv_counts.end());
  }
  for (const auto& [node, c] : sent_per_node) {
    const auto r = recv_per_node.find(node);
    stats.busiest.emplace_back(c + (r == recv_per_node.end() ? 0 : r->second),
                               node);
  }
  std::sort(stats.busiest.begin(), stats.busiest.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  return stats;
}

}  // namespace tgc::app
