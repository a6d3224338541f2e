#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "tgcover/sim/engine.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {

/// Event-driven asynchronous network: messages between adjacent nodes incur
/// independent random delays in [min_delay, max_delay]; there is no global
/// round clock. This is the weaker, more realistic execution model; the
/// α-synchronizer below recovers the synchronous abstraction the paper's
/// protocol is written in, and tests assert the recovered executions are
/// bit-identical to RoundEngine's.
class AsyncEngine {
 public:
  struct Options {
    double min_delay = 0.5;
    double max_delay = 1.5;
    /// Independent per-message loss probability. Lost messages are counted
    /// as transmitted but never delivered — the reliable-delivery layer in
    /// the α-synchronizer (acks + retransmission) recovers from this.
    double loss_probability = 0.0;
    std::uint64_t seed = 1;
  };

  AsyncEngine(const graph::Graph& g, const Options& options);

  const graph::Graph& graph() const { return *g_; }

  void deactivate(graph::VertexId v);
  bool is_active(graph::VertexId v) const { return active_[v]; }
  const std::vector<bool>& active() const { return active_; }

  /// Sends a message with a fresh random link delay. Must be called from a
  /// handler or before `run()`.
  void send(graph::VertexId from, graph::VertexId to, std::uint32_t type,
            std::vector<std::uint32_t> payload);

  /// Handler invoked on every message delivery: (now, message, engine).
  using OnDeliver = std::function<void(double now, const Message& msg)>;

  /// Schedules a timer callback at now + delay (usable before and during
  /// run()). Timers let protocols implement retransmission.
  void schedule(double delay, std::function<void()> callback);

  /// Runs the event loop until no events remain; returns the final time.
  double run(const OnDeliver& handler);

  double now() const { return now_; }

  const TrafficStats& stats() const { return stats_; }
  std::size_t messages_lost() const { return messages_lost_; }

 private:
  struct Event {
    double time;
    std::uint64_t sequence;  // FIFO tie-break for determinism
    Message msg;             // delivery event when timer is empty
    std::function<void()> timer;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time
                                : sequence > other.sequence;
    }
  };

  const graph::Graph* g_;
  Options options_;
  util::Rng rng_;
  std::vector<bool> active_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::uint64_t next_sequence_ = 0;
  double now_ = 0.0;  ///< simulation clock, advanced by run()
  std::size_t messages_lost_ = 0;
  TrafficStats stats_;
};

/// The α-synchronizer (Awerbuch): simulates synchronous rounds on the
/// asynchronous engine. In every round each node first transmits its
/// protocol messages plus one end-of-round beacon to every active neighbor,
/// then advances when it has heard the round's beacon from all of them.
/// Running a SyncRunner::Handler under it yields exactly the synchronous
/// execution (same inboxes per round, arbitrary delivery order within a
/// round — handlers must not depend on inbox order beyond sender identity,
/// which ours do not; tests pin this down). As a SyncRunner it lets the
/// distributed DCC executor run unchanged on the lossy asynchronous engine,
/// with schedules bit-identical to RoundEngine's (asserted by tests).
///
/// The synchronizer is *incremental*: protocol state persists across
/// run_rounds calls, so consecutive calls continue one synchronous
/// execution — messages sent in the last round of one call are consumed in
/// the first round of the next, exactly like back-to-back
/// RoundEngine::run_round calls. Every call returns at a quiescent point
/// (event queue drained, all active nodes at the same round), which is when
/// deactivating nodes between calls is legal; the topology is re-snapshotted
/// at each call.
///
/// It keeps only state a later event can still read: the ledger holds the
/// unacked round messages (an ack retires its entry), and each node buffers
/// only the rounds it has not consumed. At every quiescent point the ledger
/// is empty and each active node buffers at most the round its next call
/// consumes first (checked).
///
/// Reliability: every combined round message is acknowledged; unacked
/// messages are retransmitted every `retransmit_interval`, so the
/// synchronous semantics survive lossy links (AsyncEngine loss_probability).
class AlphaSynchronizer final : public SyncRunner {
 public:
  explicit AlphaSynchronizer(AsyncEngine& engine,
                             double retransmit_interval = 4.0);

  /// Runs `rounds` further synchronous rounds of `handler` over the async
  /// engine (continuing from where the previous call stopped).
  void run_rounds(std::size_t rounds, const Handler& handler);

  const graph::Graph& graph() const override { return engine_->graph(); }
  void run_round(const Handler& handler) override { run_rounds(1, handler); }
  void deactivate(graph::VertexId v) override {
    engine_->deactivate(v);
    if (v < inbox_.size()) inbox_[v].clear();  // never consumed now
  }
  bool is_active(graph::VertexId v) const override {
    return engine_->is_active(v);
  }
  const std::vector<bool>& active() const override {
    return engine_->active();
  }
  /// Transport-level traffic (combined round messages, acks and
  /// retransmissions — the real radio cost), with `rounds` counting the
  /// simulated synchronous rounds completed.
  const TrafficStats& stats() const override { return stats_; }

  std::size_t retransmissions() const { return retransmissions_; }

 private:
  struct Outgoing {
    graph::VertexId from = 0;
    graph::VertexId to = 0;
    std::vector<std::uint32_t> payload;
  };
  /// One unconsumed round at a receiver: who has been heard, and the
  /// protocol messages they sent.
  struct Inbox {
    std::vector<graph::VertexId> senders;
    std::vector<Message> msgs;
  };

  std::uint64_t link_of(graph::VertexId from, graph::VertexId to) const;
  void refresh_topology();
  void transmit(std::uint64_t link, std::uint32_t round);
  void execute(graph::VertexId v, const Handler& handler);
  void try_advance(graph::VertexId v, const Handler& handler);

  AsyncEngine* engine_;
  double retransmit_interval_;
  std::size_t target_rounds_ = 0;
  std::size_t retransmissions_ = 0;
  TrafficStats stats_;

  // Persistent per-node protocol state (lazily sized on first run_rounds).
  std::vector<std::vector<graph::VertexId>> nbrs_;
  std::vector<std::size_t> executed_;  ///< handler invocations so far
  /// inbox_[v][r]: round r as heard by v, until v's handler consumes it.
  std::vector<std::unordered_map<std::uint32_t, Inbox>> inbox_;
  /// Reliable-delivery ledger of unacked round messages, keyed by directed
  /// link then round.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint32_t, Outgoing>>
      outgoing_;
};

}  // namespace tgc::sim
