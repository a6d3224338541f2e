#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tgcover/graph/graph.hpp"

namespace tgc::sim {

/// A radio message between two adjacent nodes. Payloads are word vectors;
/// protocols define their own encodings. Word counts feed the byte
/// accounting (4 bytes per word).
struct Message {
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  std::uint32_t type = 0;
  std::vector<std::uint32_t> payload;
  /// Causal-trace correlation id assigned at send time (the send event's
  /// sequence number; see obs/trace.hpp). 0 when tracing is inactive.
  /// Carried with the message so the deliver event pairs with its send;
  /// never read by any protocol — schedules are identical with and without
  /// tracing.
  std::uint64_t trace_id = 0;
};

/// Cumulative traffic counters for a protocol run.
struct TrafficStats {
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::size_t payload_words = 0;

  std::size_t payload_bytes() const { return payload_words * 4; }

  void merge(const TrafficStats& other) {
    rounds += other.rounds;
    messages += other.messages;
    payload_words += other.payload_words;
  }
};

/// Outbound mail interface handed to node handlers. Abstract so the same
/// protocol handlers run unchanged on the synchronous RoundEngine and on the
/// α-synchronizer over the asynchronous engine (async.hpp).
class Mailer {
 public:
  virtual ~Mailer() = default;

  /// Sends to an active neighbor (messages to inactive nodes are dropped
  /// silently, modeling a powered-down radio — but still counted as sent).
  virtual void send(graph::VertexId to, std::uint32_t type,
                    std::vector<std::uint32_t> payload) = 0;

  /// Sends a copy to every active neighbor.
  virtual void broadcast(std::uint32_t type,
                         const std::vector<std::uint32_t>& payload) = 0;
};

/// The synchronous-rounds execution substrate the protocols (`sim::flood`,
/// hence k-hop collection, MIS and deletion announcements, and the
/// distributed DCC executor) are written against. Two
/// implementations exist: RoundEngine below (ideal reliable rounds) and
/// AlphaSynchronizer (async.hpp — each round simulated over the lossy
/// asynchronous engine). Handlers see identical inboxes per round
/// on both, so one protocol implementation runs on either substrate.
class SyncRunner {
 public:
  using Handler =
      std::function<void(graph::VertexId node, std::span<const Message> inbox,
                         Mailer& mailer)>;

  virtual ~SyncRunner() = default;

  virtual const graph::Graph& graph() const = 0;

  /// Runs one synchronous round: every active node's handler sees the inbox
  /// accumulated from the previous round; sends become next round's inboxes.
  virtual void run_round(const Handler& handler) = 0;

  /// Deactivates a node: it no longer receives, relays, or sends. Pending
  /// messages to it are dropped. Only legal between rounds (the network is
  /// quiescent at every run_round boundary).
  virtual void deactivate(graph::VertexId v) = 0;
  virtual bool is_active(graph::VertexId v) const = 0;
  virtual const std::vector<bool>& active() const = 0;

  virtual const TrafficStats& stats() const = 0;
};

/// Synchronous round-based message-passing engine over a connectivity graph.
///
/// In each round every *active* node handles the messages delivered to it at
/// the end of the previous round and may send new messages to active
/// neighbors; deliveries are reliable and take exactly one round. This is the
/// standard LOCAL/CONGEST-style abstraction the paper's distributed
/// algorithm is described in ("these deletion operations can iteratively run
/// in rounds", Section V-B).
class RoundEngine final : public SyncRunner {
 public:
  explicit RoundEngine(const graph::Graph& g);

  const graph::Graph& graph() const override { return *g_; }

  void deactivate(graph::VertexId v) override;
  bool is_active(graph::VertexId v) const override { return active_[v]; }
  const std::vector<bool>& active() const override { return active_; }

  void run_round(const Handler& handler) override;

  const TrafficStats& stats() const override { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  const graph::Graph* g_;
  std::vector<bool> active_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::vector<Message>> next_inbox_;
  TrafficStats stats_;
};

}  // namespace tgc::sim
