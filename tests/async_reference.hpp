#pragma once

// Test-only reference for the α-synchronizer transport: sim::AsyncEngine and
// sim::AlphaSynchronizer as they stood before the flat-state rewrite (a
// std::priority_queue of events that own their payload vectors and
// std::function timers, a hashed has_edge check per send, a nested
// unordered_map ledger keyed by (link, round), and an unordered_map of
// inboxes per node), made header-only and otherwise unchanged. It emits the
// same obs hooks and draws the same random numbers in the same order, so
// async_diff_test can require the rewritten engine to match it event for
// event. Its transport carries its own owning Packet; only the handler
// boundary adapts to the broadcast-only substrate (sim::Message views in,
// one sim::Broadcast out, packed for every active neighbour).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "tgcover/obs/log.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::async_reference {

using sim::SyncRunner;
using sim::TrafficStats;

/// A transport message that owns its payload.
struct Packet {
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  std::uint32_t type = 0;
  std::vector<std::uint32_t> payload;
  std::uint64_t trace_id = 0;
};

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
  using OnDeliver = std::function<void(double now, const Packet& msg)>;

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
    Packet msg;              // delivery event when timer is empty
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
    std::vector<Packet> msgs;
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


inline AsyncEngine::AsyncEngine(const graph::Graph& g, const Options& options)
    : g_(&g),
      options_(options),
      rng_(options.seed),
      active_(g.num_vertices(), true) {
  TGC_CHECK(options.min_delay > 0.0);
  TGC_CHECK(options.max_delay >= options.min_delay);
  TGC_CHECK(options.loss_probability >= 0.0 && options.loss_probability < 1.0);
}

inline void AsyncEngine::deactivate(graph::VertexId v) {
  TGC_CHECK(v < active_.size());
  active_[v] = false;
  if (obs::trace_active()) {
    obs::trace_emit(obs::TraceKind::kDeactivate, v, obs::kTraceNoNode, 0, 0,
                    now_);
  }
}

inline void AsyncEngine::send(graph::VertexId from, graph::VertexId to,
                       std::uint32_t type, std::vector<std::uint32_t> payload) {
  TGC_CHECK_MSG(g_->has_edge(from, to),
                "node " << from << " cannot send to non-neighbor " << to);
  ++stats_.messages;
  stats_.payload_words += payload.size();
  obs::add(obs::CounterId::kMessages, 1);
  obs::add(obs::CounterId::kPayloadWords, payload.size());
  obs::NodeTelemetry* const nt = obs::node_telemetry();
  if (nt != nullptr) nt->on_send(from, to, payload.size());
  const bool traced = obs::trace_active();
  std::uint64_t trace_id = 0;
  if (traced) {
    trace_id = obs::trace_emit(obs::TraceKind::kSend, from, to, type,
                               static_cast<std::uint32_t>(payload.size()),
                               now_);
  }
  if (!active_[to]) {
    if (nt != nullptr) nt->on_drop(from, to);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kDrop, to, from, type, 0, now_,
                      trace_id);
    }
    return;
  }
  if (options_.loss_probability > 0.0 &&
      rng_.bernoulli(options_.loss_probability)) {
    ++messages_lost_;  // transmitted into the noise
    obs::add(obs::CounterId::kMessagesLost, 1);
    if (nt != nullptr) nt->on_loss(from, to);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kLoss, from, to, type,
                      static_cast<std::uint32_t>(payload.size()), now_,
                      trace_id);
    }
    return;
  }
  // Events pushed before run() depart at time 0; events pushed from inside a
  // delivery handler depart at that delivery's time (the engine clock).
  const double delay = rng_.uniform(options_.min_delay, options_.max_delay);
  Packet msg{from, to, type, std::move(payload)};
  msg.trace_id = trace_id;
  queue_.push(Event{now_ + delay, next_sequence_++, std::move(msg), nullptr});
}

inline void AsyncEngine::schedule(double delay, std::function<void()> callback) {
  TGC_CHECK(delay > 0.0);
  Event ev{now_ + delay, next_sequence_++, Packet{}, std::move(callback)};
  if (obs::trace_active()) {
    // The timer-set event's sequence number doubles as the flow id the
    // matching timer-fire pop reports (carried in the placeholder message).
    ev.msg.trace_id = obs::trace_emit(obs::TraceKind::kTimerSet,
                                      obs::kTraceNoNode, obs::kTraceNoNode, 0,
                                      0, now_);
  }
  queue_.push(std::move(ev));
}

inline double AsyncEngine::run(const OnDeliver& handler) {
  while (!queue_.empty()) {
    // The handler may push new events; copy the top out before popping.
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    const bool traced = obs::trace_active();
    if (ev.timer) {
      if (traced) {
        obs::trace_emit(obs::TraceKind::kTimerFire, obs::kTraceNoNode,
                        obs::kTraceNoNode, 0, 0, now_, ev.msg.trace_id);
      }
      ev.timer();
      continue;
    }
    obs::NodeTelemetry* const nt = obs::node_telemetry();
    if (!active_[ev.msg.to]) {  // deactivated while in flight
      if (nt != nullptr) nt->on_drop(ev.msg.from, ev.msg.to);
      if (traced) {
        obs::trace_emit(obs::TraceKind::kDrop, ev.msg.to, ev.msg.from,
                        ev.msg.type, 0, now_, ev.msg.trace_id);
      }
      continue;
    }
    if (nt != nullptr) {
      nt->on_deliver(ev.msg.to, ev.msg.from, ev.msg.payload.size());
    }
    if (traced) {
      obs::trace_emit(obs::TraceKind::kDeliver, ev.msg.to, ev.msg.from,
                      ev.msg.type,
                      static_cast<std::uint32_t>(ev.msg.payload.size()), now_,
                      ev.msg.trace_id);
    }
    handler(now_, ev.msg);
  }
  return now_;
}


/// One combined "round message" per (sender, receiver, round): payload is
/// [round, count, (type, len, words...) * count]. Serving simultaneously as
/// the α-synchronizer's end-of-round beacon, it makes per-link ordering a
/// non-issue: a node advances exactly when it has one round-r message from
/// every active neighbor, and by then it holds all round-r protocol traffic.
/// Over lossy links every round message is acked and retransmitted until
/// acked; receivers deduplicate.
constexpr std::uint32_t kMsgRound = 0xa1fa;
constexpr std::uint32_t kMsgAck = 0xa1fb;

inline std::vector<std::uint32_t> pack_round(std::uint32_t round,
                                      const std::vector<Packet>& msgs) {
  std::vector<std::uint32_t> payload{round,
                                     static_cast<std::uint32_t>(msgs.size())};
  for (const Packet& m : msgs) {
    payload.push_back(m.type);
    payload.push_back(static_cast<std::uint32_t>(m.payload.size()));
    payload.insert(payload.end(), m.payload.begin(), m.payload.end());
  }
  return payload;
}

inline std::vector<Packet> unpack_round(const Packet& combined,
                                  std::uint32_t* round) {
  const auto& p = combined.payload;
  TGC_CHECK(p.size() >= 2);
  *round = p[0];
  const std::uint32_t count = p[1];
  std::vector<Packet> msgs;
  msgs.reserve(count);
  std::size_t i = 2;
  for (std::uint32_t m = 0; m < count; ++m) {
    TGC_CHECK(i + 2 <= p.size());
    Packet msg;
    msg.from = combined.from;
    msg.to = combined.to;
    // Protocol messages inherit the transport message's flow id, so a
    // handler-level consumer still correlates with the causal send chain.
    msg.trace_id = combined.trace_id;
    msg.type = p[i++];
    const std::uint32_t len = p[i++];
    TGC_CHECK(i + len <= p.size());
    msg.payload.assign(p.begin() + static_cast<std::ptrdiff_t>(i),
                       p.begin() + static_cast<std::ptrdiff_t>(i + len));
    i += len;
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

inline AlphaSynchronizer::AlphaSynchronizer(AsyncEngine& engine,
                                     double retransmit_interval)
    : engine_(&engine), retransmit_interval_(retransmit_interval) {
  TGC_CHECK(retransmit_interval > 0.0);
}

inline std::uint64_t AlphaSynchronizer::link_of(graph::VertexId from,
                                         graph::VertexId to) const {
  return static_cast<std::uint64_t>(from) *
             engine_->graph().num_vertices() +
         to;
}

inline void AlphaSynchronizer::refresh_topology() {
  const graph::Graph& g = engine_->graph();
  const std::size_t n = g.num_vertices();
  nbrs_.assign(n, {});
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!engine_->is_active(v)) continue;
    for (const graph::VertexId u : g.neighbors(v)) {
      if (engine_->is_active(u)) nbrs_[v].push_back(u);
    }
  }
}

/// Sends an outgoing round message and arms its retransmission timer; the
/// timer's chain ends once the ack has retired the ledger entry.
inline void AlphaSynchronizer::transmit(std::uint64_t link, std::uint32_t round) {
  const Outgoing& out = outgoing_.at(link).at(round);
  engine_->send(out.from, out.to, kMsgRound, out.payload);
  engine_->schedule(retransmit_interval_, [this, link, round] {
    auto& ledger = outgoing_.at(link);
    const auto it = ledger.find(round);
    if (it == ledger.end()) return;
    ++retransmissions_;
    obs::add(obs::CounterId::kRetransmissions, 1);
    if (obs::NodeTelemetry* const nt = obs::node_telemetry()) {
      nt->on_retransmit(it->second.from, it->second.to);
    }
    if (obs::trace_active()) {
      obs::trace_emit(obs::TraceKind::kRetransmit, it->second.from,
                      it->second.to, 0, round, engine_->now());
    }
    transmit(link, round);
  });
}

/// Executes round `executed_[v]` at v: the handler consumes the previous
/// round's messages and its sends ship as this round's combined messages.
inline void AlphaSynchronizer::execute(graph::VertexId v, const Handler& handler) {
  const std::size_t round_index = executed_[v];
  std::vector<Packet> inbox;
  if (round_index > 0) {
    const auto it =
        inbox_[v].find(static_cast<std::uint32_t>(round_index - 1));
    if (it != inbox_[v].end()) {
      inbox = std::move(it->second.msgs);
      inbox_[v].erase(it);
    }
  }
  // Handler spans use the 1-based round number; transport-level deliver
  // events were already emitted at pop time (the gap between a combined
  // message's arrival and this span is exactly the synchronizer stall).
  const bool traced = obs::trace_active();
  if (traced) {
    obs::trace_emit(obs::TraceKind::kHandlerBegin, v, obs::kTraceNoNode, 0,
                    static_cast<std::uint32_t>(round_index + 1),
                    engine_->now());
  }
  // The handler boundary: views of the owned packets in, one broadcast out.
  std::vector<sim::Message> views;
  for (const Packet& p : inbox) {
    views.push_back(sim::Message{p.from, p.type, p.payload, p.trace_id});
  }
  std::vector<std::uint32_t> words;
  sim::Broadcast out(words);
  handler(v, std::span<const sim::Message>(views), out);
  if (traced) {
    obs::trace_emit(obs::TraceKind::kHandlerEnd, v, obs::kTraceNoNode, 0,
                    static_cast<std::uint32_t>(round_index + 1),
                    engine_->now());
  }
  for (const graph::VertexId u : nbrs_[v]) {
    std::vector<Packet> msgs;
    if (out.sent()) msgs.push_back(Packet{v, u, out.type(), words});
    const auto round32 = static_cast<std::uint32_t>(round_index);
    outgoing_[link_of(v, u)].emplace(
        round32, Outgoing{v, u, pack_round(round32, msgs)});
    transmit(link_of(v, u), round32);
  }
  ++executed_[v];
}

inline void AlphaSynchronizer::try_advance(graph::VertexId v,
                                    const Handler& handler) {
  while (executed_[v] < target_rounds_) {
    if (executed_[v] == 0) {
      execute(v, handler);
      continue;
    }
    const auto it =
        inbox_[v].find(static_cast<std::uint32_t>(executed_[v] - 1));
    const std::size_t have =
        it == inbox_[v].end() ? 0 : it->second.senders.size();
    // `have` can exceed the neighbor count when a neighbor was deactivated
    // after sending that round's beacon (between run_rounds calls);
    // advancement then proceeds exactly as RoundEngine would.
    if (have < nbrs_[v].size()) break;
    execute(v, handler);
  }
}

inline void AlphaSynchronizer::run_rounds(std::size_t rounds,
                                   const Handler& handler) {
  if (rounds == 0) return;
  const std::size_t n = engine_->graph().num_vertices();
  if (executed_.empty() && n > 0) {
    executed_.assign(n, 0);
    inbox_.resize(n);
  }
  // Deactivations are only legal between calls (the network is quiescent
  // then), so a per-call topology snapshot is exact.
  refresh_topology();
  target_rounds_ += rounds;
  TGC_LOG(kDebug) << "alpha-sync batch" << obs::kv("rounds", rounds)
                  << obs::kv("target", target_rounds_)
                  << obs::kv("sim_now", engine_->now());

  // Kick off; nodes whose previous-round inboxes are already complete (all
  // of round r-1 was delivered before the last call returned) run at once.
  for (graph::VertexId v = 0; v < n; ++v) {
    if (engine_->is_active(v)) try_advance(v, handler);
  }

  engine_->run([&](double /*now*/, const Packet& msg) {
    if (msg.type == kMsgAck) {
      TGC_CHECK(msg.payload.size() == 1);
      outgoing_.at(link_of(msg.to, msg.from)).erase(msg.payload[0]);
      return;
    }
    if (msg.type != kMsgRound) return;
    std::uint32_t round = 0;
    auto msgs = unpack_round(msg, &round);
    // Always (re-)ack — a previous ack may have been lost.
    engine_->send(msg.to, msg.from, kMsgAck, {round});
    // A retransmission is a duplicate when its round is already consumed
    // (the receiver heard every neighbor's copy before consuming it) or its
    // sender is already in that round's inbox.
    if (round + 1 < executed_[msg.to]) return;
    Inbox& in = inbox_[msg.to][round];
    if (std::ranges::find(in.senders, msg.from) != in.senders.end()) return;
    in.senders.push_back(msg.from);
    for (auto& m : msgs) in.msgs.push_back(std::move(m));
    if (obs::NodeTelemetry* const nt = obs::node_telemetry()) {
      // Synchronizer backlog: protocol messages buffered at the receiver
      // waiting for its round frontier to advance. A node holds at most two
      // unconsumed rounds, so summing here is cheap and only happens when
      // telemetry is armed.
      std::size_t depth = 0;
      for (const auto& [r, buffered] : inbox_[msg.to]) {
        depth += buffered.msgs.size();
      }
      nt->on_backlog(msg.to, depth);
    }
    try_advance(msg.to, handler);
  });

  // Quiescent: a drained queue means every retransmit chain has ended, so
  // every round message was acked and the ledger is empty; each active node
  // buffers only the round its next call consumes first.
  stats_ = engine_->stats();
  stats_.rounds = target_rounds_;
  TGC_CHECK_MSG(std::all_of(outgoing_.begin(), outgoing_.end(),
                            [](const auto& l) { return l.second.empty(); }),
                "synchronizer left a round message unacked");
  const auto last = static_cast<std::uint32_t>(target_rounds_ - 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (engine_->is_active(v)) {
      TGC_CHECK_MSG(executed_[v] == target_rounds_,
                    "synchronizer stalled at node " << v);
      TGC_CHECK_MSG(inbox_[v].size() == inbox_[v].count(last),
                    "node " << v << " buffers a consumed or future round");
    }
  }
}

}  // namespace tgc::async_reference
