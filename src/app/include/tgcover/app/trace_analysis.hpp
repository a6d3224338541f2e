#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/jsonl.hpp"

namespace tgc::app {

/// Everything `tgcover report` derives from a bundle's trace stream: the
/// invariant violations (truncation, causality breaks, unbalanced spans),
/// and the causal statistics — the critical path in message hops per
/// scheduler segment, traffic and latency aggregates, and the busiest nodes.
struct TraceStats {
  std::optional<obs::JsonRecord> header;    ///< the trace_header record
  std::size_t events = 0;

  /// Human-readable invariant violations, in detection order. Non-empty
  /// means the file is truncated, reordered, or causally inconsistent.
  std::vector<std::string> violations;

  // Scheduler structure.
  std::size_t deletion_rounds = 0;
  std::size_t fixpoint_probes = 0;
  std::size_t engine_rounds = 0;

  /// Longest send→deliver chain per scheduler segment (segments end at each
  /// sched_round_end; a trailing segment covers the pre-round k-hop phase).
  std::vector<std::uint64_t> segment_hops;
  std::uint64_t critical_path = 0;  ///< sum of segment_hops

  // Traffic.
  std::size_t sends = 0, delivers = 0, drops = 0, losses = 0, retransmits = 0;
  std::uint64_t lost_words = 0;

  // Delivery latency (sim clock), over matched send→deliver flows.
  std::size_t latency_samples = 0;
  double latency_sum = 0.0, latency_min = 0.0, latency_max = 0.0;

  // Per-node traffic: (sent+received, node), sorted busiest-first.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> busiest;
  std::uint64_t sent_min = 0, sent_median = 0, sent_max = 0;
  std::uint64_t recv_min = 0, recv_median = 0, recv_max = 0;
  bool has_traffic = false;  ///< true when any node sent a message
};

/// Analyzes the bundle's trace_header / trace_event records (file order).
TraceStats analyze_trace(const Bundle& bundle);

}  // namespace tgc::app
