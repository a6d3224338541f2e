#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
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
///
/// The engine keeps flat state only. A directed link is named by its CSR
/// adjacency slot: the links of v are `first_link(v) + i` for the i-th entry
/// of `graph().neighbors(v)`, and `reverse(l)` is the opposite direction.
/// Payload words live in pooled, reference-counted buffers; an event is a
/// POD (a delivery over a link, or a timer with a 64-bit tag) ordered by
/// (time, sequence), an order that is strict and total. Deliveries go to a
/// binary heap. A timer due no earlier than every queued timer is appended
/// to a FIFO timer lane, which that order keeps sorted; any other timer
/// goes to the heap. run() pops whichever of the lane's front and the
/// heap's top comes first, so events fire in exactly the order one queue of
/// all of them would give.
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

  /// One delivered message, handed to run()'s delivery callback. `payload`
  /// views pooled buffer `buffer`, which stays valid until the callback
  /// returns unless the callback retain()s it.
  struct Delivery {
    std::uint32_t link = 0;  ///< CSR slot of the from→to link
    graph::VertexId from = graph::kInvalidVertex;
    graph::VertexId to = graph::kInvalidVertex;
    std::uint32_t type = 0;
    std::uint32_t buffer = 0;
    std::span<const std::uint32_t> payload;
    /// The send event's flow id (0 when tracing is inactive).
    std::uint64_t trace_id = 0;
  };

  AsyncEngine(const graph::Graph& g, const Options& options);

  const graph::Graph& graph() const { return *g_; }

  void deactivate(graph::VertexId v);
  bool is_active(graph::VertexId v) const { return active_[v]; }
  const std::vector<bool>& active() const { return active_; }

  std::uint32_t first_link(graph::VertexId v) const { return offsets_[v]; }
  graph::VertexId link_from(std::uint32_t link) const { return from_[link]; }
  graph::VertexId link_to(std::uint32_t link) const { return to_[link]; }
  std::uint32_t reverse(std::uint32_t link) const { return reverse_[link]; }

  /// Payload pool. acquire() returns an empty buffer holding one reference;
  /// a buffer returns to the pool when its last reference is released, and
  /// gives its storage back if it grew past a few dozen words, so one large
  /// round does not pin its peak in the pool.
  std::uint32_t acquire();
  std::vector<std::uint32_t>& words(std::uint32_t buffer) {
    return buffers_[buffer];
  }
  void retain(std::uint32_t buffer) { ++refs_[buffer]; }
  void release(std::uint32_t buffer);

  /// Sends the buffer's words over `link` with a fresh random link delay,
  /// consuming one reference to the buffer. Must be called from a callback
  /// or before `run()`.
  void send_link(std::uint32_t link, std::uint32_t type, std::uint32_t buffer);

  /// Arms a timer at now + delay (usable before and during run()); when it
  /// fires, run() hands `tag` to its timer callback. Timers let protocols
  /// implement retransmission.
  void schedule(double delay, std::uint64_t tag);

  using OnDeliver = std::function<void(double now, const Delivery& msg)>;
  using OnTimer = std::function<void(std::uint64_t tag)>;

  /// Runs the event loop until no events remain; returns the final time.
  double run(const OnDeliver& on_deliver, const OnTimer& on_timer = {});

  double now() const { return now_; }

  const TrafficStats& stats() const { return stats_; }
  std::size_t messages_lost() const { return messages_lost_; }

 private:
  static constexpr std::uint32_t kTimerLink = 0xffffffffu;

  struct Event {
    double time;
    std::uint64_t sequence;  // FIFO tie-break for determinism
    std::uint64_t data;      // delivery: payload buffer; timer: tag
    std::uint64_t trace_id;  // send / timer-set flow id
    std::uint32_t link;      // kTimerLink for a timer
    std::uint32_t type;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.sequence > b.sequence;
    }
  };

  void heap_push(const Event& ev);

  const graph::Graph* g_;
  Options options_;
  util::Rng rng_;
  std::vector<bool> active_;
  std::vector<std::uint32_t> offsets_;    // n+1: first link of each node
  std::vector<graph::VertexId> from_;     // per link
  std::vector<graph::VertexId> to_;       // per link
  std::vector<std::uint32_t> reverse_;    // per link
  std::vector<std::vector<std::uint32_t>> buffers_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> free_buffers_;
  std::vector<Event> heap_;  ///< binary heap under Later
  std::deque<Event> lane_;   ///< timers, sorted by Later's order
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
/// deactivating nodes between calls is legal.
///
/// Its state is flat. Each link keeps a short vector of its unacked
/// (round, buffer) entries; an ack retires one. Each node has two receive
/// slots indexed by round parity: a non-duplicate round r reaching a node
/// that has executed e rounds always has e − 1 ≤ r ≤ e (checked), so the
/// rounds a node buffers never share a slot. A node's broadcast is one
/// buffer retained by the ledger entry of each active neighbour's link, and
/// a slot keeps the received buffers themselves, so a round message's words
/// exist once, shared by the sender's ledger, the flights and the
/// receivers, whose handler inboxes view them. At every quiescent
/// point no entry is unacked and each active node buffers at most the round
/// its next call consumes first (checked).
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
  void deactivate(graph::VertexId v) override;
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
  struct Unacked {
    std::uint32_t round;
    std::uint32_t buffer;
  };
  struct Arrival {
    graph::VertexId from;
    std::uint32_t buffer;
    std::uint64_t trace_id;
  };
  /// One unconsumed round at a receiver: the combined messages heard, in
  /// arrival order, and the protocol messages they carry.
  struct Slot {
    std::uint32_t round = 0;
    std::size_t messages = 0;
    std::vector<Arrival> arrivals;
  };

  Slot& slot(graph::VertexId v, std::size_t round) {
    return slots_[v][round & 1];
  }
  void clear(Slot& s);
  void transmit(std::uint32_t link, std::uint32_t round, std::uint32_t buffer);
  void on_timer(std::uint64_t tag);
  void on_deliver(const AsyncEngine::Delivery& msg, const Handler& handler);
  void execute(graph::VertexId v, const Handler& handler);
  void try_advance(graph::VertexId v, const Handler& handler);

  AsyncEngine* engine_;
  double retransmit_interval_;
  std::size_t target_rounds_ = 0;
  std::size_t retransmissions_ = 0;
  TrafficStats stats_;

  // Persistent protocol state (lazily sized on first run_rounds).
  std::vector<std::size_t> executed_;  ///< handler invocations so far
  std::vector<std::size_t> degree_;    ///< active neighbors, this call
  std::vector<std::array<Slot, 2>> slots_;
  std::vector<std::vector<Unacked>> unacked_;  ///< per link
  std::size_t num_unacked_ = 0;
  std::vector<Message> inbox_;  ///< per-execute scratch, reused
};

}  // namespace tgc::sim
