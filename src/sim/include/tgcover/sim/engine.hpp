#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tgcover/graph/graph.hpp"

namespace tgc::sim {

/// A radio message a node heard from a neighbour. Payloads are words;
/// protocols define their own encodings. Word counts feed the byte
/// accounting (4 bytes per word).
struct Message {
  graph::VertexId from = graph::kInvalidVertex;
  std::uint32_t type = 0;
  /// Views the sender's words; valid for the duration of the handler call
  /// that receives the message.
  std::span<const std::uint32_t> payload;
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
};

/// A node's radio for one round, handed to its handler by the runner that
/// owns it: the node broadcasts at most one message to every active
/// neighbour (messages to inactive neighbours are dropped, modeling a
/// powered-down radio — but still counted as sent), or stays silent.
class Broadcast {
 public:
  /// The words go to the back of `words`, which the runner owns.
  explicit Broadcast(std::vector<std::uint32_t>& words) : words_(&words) {}

  /// Broadcasts `words` (copied at once) as one message of `type`. A second
  /// call in the same handler is a TGC_CHECK failure.
  void send(std::uint32_t type, std::span<const std::uint32_t> words);

  bool sent() const { return sent_; }
  std::uint32_t type() const { return type_; }

 private:
  std::vector<std::uint32_t>* words_;
  std::uint32_t type_ = 0;
  bool sent_ = false;
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
                         Broadcast& out)>;

  virtual ~SyncRunner() = default;

  virtual const graph::Graph& graph() const = 0;

  /// Runs one synchronous round: every active node's handler sees the inbox
  /// of the broadcasts its neighbours made in the previous round; its own
  /// broadcast becomes part of next round's inboxes.
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
/// the end of the previous round and may broadcast to its active
/// neighbours; deliveries are reliable and take exactly one round. This is
/// the standard LOCAL/CONGEST-style abstraction the paper's distributed
/// algorithm is described in ("these deletion operations can iteratively run
/// in rounds", Section V-B).
///
/// Each node's broadcast words are double-buffered by round parity: the
/// messages of round r view the sender's words of round r, which stay put
/// while round r + 1 writes the other buffer.
class RoundEngine final : public SyncRunner {
 public:
  explicit RoundEngine(const graph::Graph& g);

  const graph::Graph& graph() const override { return *g_; }

  void deactivate(graph::VertexId v) override;
  bool is_active(graph::VertexId v) const override { return active_[v]; }
  const std::vector<bool>& active() const override { return active_; }

  void run_round(const Handler& handler) override;

  const TrafficStats& stats() const override { return stats_; }

 private:
  void transmit(graph::VertexId from, std::uint32_t type,
                std::span<const std::uint32_t> words);

  const graph::Graph* g_;
  std::vector<bool> active_;
  std::vector<std::array<std::vector<std::uint32_t>, 2>> words_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::vector<Message>> next_inbox_;
  TrafficStats stats_;
};

}  // namespace tgc::sim
