#include "tgcover/sim/async.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tgcover/obs/log.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::sim {

namespace {

/// A released buffer keeps its storage only up to this many words; larger
/// ones (k-hop collection rounds) give it back.
constexpr std::size_t kPooledWords = 64;

}  // namespace

AsyncEngine::AsyncEngine(const graph::Graph& g, const Options& options)
    : g_(&g),
      options_(options),
      rng_(options.seed),
      active_(g.num_vertices(), true) {
  TGC_CHECK_MSG(std::isfinite(options.min_delay) && options.min_delay > 0.0,
                "link delays must be finite and positive");
  TGC_CHECK_MSG(std::isfinite(options.max_delay) &&
                    options.max_delay >= options.min_delay,
                "the maximum link delay must be finite and >= the minimum");
  TGC_CHECK(options.loss_probability >= 0.0 && options.loss_probability < 1.0);
  const std::size_t n = g.num_vertices();
  TGC_CHECK(2 * g.num_edges() < kTimerLink);
  offsets_.assign(n + 1, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + static_cast<std::uint32_t>(g.degree(v));
  }
  from_.resize(offsets_[n]);
  to_.resize(offsets_[n]);
  reverse_.resize(offsets_[n]);
  // Adjacency lists are sorted, so scanning v upward meets v in each
  // neighbor's list in list order: a cursor per node finds every reverse
  // slot in one pass.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    std::uint32_t l = offsets_[v];
    for (const graph::VertexId u : g.neighbors(v)) {
      from_[l] = v;
      to_[l] = u;
      reverse_[l] = cursor[u]++;
      ++l;
    }
  }
}

void AsyncEngine::deactivate(graph::VertexId v) {
  TGC_CHECK(v < active_.size());
  active_[v] = false;
  if (obs::trace_active()) {
    obs::trace_emit(obs::TraceKind::kDeactivate, v, obs::kTraceNoNode, 0, 0,
                    now_);
  }
}

std::uint32_t AsyncEngine::acquire() {
  if (free_buffers_.empty()) {
    TGC_CHECK(buffers_.size() < std::numeric_limits<std::uint32_t>::max());
    buffers_.emplace_back();
    refs_.push_back(1);
    return static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  const std::uint32_t buffer = free_buffers_.back();
  free_buffers_.pop_back();
  refs_[buffer] = 1;
  return buffer;
}

void AsyncEngine::release(std::uint32_t buffer) {
  if (--refs_[buffer] != 0) return;
  std::vector<std::uint32_t>& w = buffers_[buffer];
  if (w.capacity() > kPooledWords) {
    std::vector<std::uint32_t>().swap(w);
  } else {
    w.clear();
  }
  free_buffers_.push_back(buffer);
}

void AsyncEngine::heap_push(const Event& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void AsyncEngine::send_link(std::uint32_t link, std::uint32_t type,
                            std::uint32_t buffer) {
  const graph::VertexId from = from_[link];
  const graph::VertexId to = to_[link];
  const std::size_t words = buffers_[buffer].size();
  ++stats_.messages;
  stats_.payload_words += words;
  obs::add(obs::CounterId::kMessages, 1);
  obs::add(obs::CounterId::kPayloadWords, words);
  obs::NodeTelemetry* const nt = obs::node_telemetry();
  if (nt != nullptr) nt->on_send(from, to, words);
  const bool traced = obs::trace_active();
  std::uint64_t trace_id = 0;
  if (traced) {
    trace_id = obs::trace_emit(obs::TraceKind::kSend, from, to, type,
                               static_cast<std::uint32_t>(words), now_);
  }
  if (!active_[to]) {
    if (nt != nullptr) nt->on_drop(from, to);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kDrop, to, from, type, 0, now_,
                      trace_id);
    }
    release(buffer);
    return;
  }
  if (options_.loss_probability > 0.0 &&
      rng_.bernoulli(options_.loss_probability)) {
    ++messages_lost_;  // transmitted into the noise
    obs::add(obs::CounterId::kMessagesLost, 1);
    if (nt != nullptr) nt->on_loss(from, to);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kLoss, from, to, type,
                      static_cast<std::uint32_t>(words), now_, trace_id);
    }
    release(buffer);
    return;
  }
  // Events pushed before run() depart at time 0; events pushed from inside a
  // callback depart at that event's time (the engine clock).
  const double delay = rng_.uniform(options_.min_delay, options_.max_delay);
  heap_push(
      Event{now_ + delay, next_sequence_++, buffer, trace_id, link, type});
}

void AsyncEngine::schedule(double delay, std::uint64_t tag) {
  TGC_CHECK(std::isfinite(delay) && delay > 0.0);
  Event ev{now_ + delay, next_sequence_++, tag, 0, kTimerLink, 0};
  if (obs::trace_active()) {
    // The timer-set event's sequence number doubles as the flow id the
    // matching timer-fire pop reports.
    ev.trace_id = obs::trace_emit(obs::TraceKind::kTimerSet,
                                  obs::kTraceNoNode, obs::kTraceNoNode, 0, 0,
                                  now_);
  }
  // Its sequence is the newest, so a timer due no earlier than the lane's
  // tail keeps the lane sorted. Timers armed a fixed interval after a clock
  // that never goes back, like the synchronizer's, always are.
  if (lane_.empty() || ev.time >= lane_.back().time) {
    lane_.push_back(ev);
  } else {
    heap_push(ev);
  }
}

double AsyncEngine::run(const OnDeliver& on_deliver, const OnTimer& on_timer) {
  while (!lane_.empty() || !heap_.empty()) {
    const bool lane_first =
        !lane_.empty() &&
        (heap_.empty() || Later{}(heap_.front(), lane_.front()));
    const Event ev = lane_first ? lane_.front() : heap_.front();
    if (lane_first) {
      lane_.pop_front();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    now_ = ev.time;
    const bool traced = obs::trace_active();
    if (ev.link == kTimerLink) {
      if (traced) {
        obs::trace_emit(obs::TraceKind::kTimerFire, obs::kTraceNoNode,
                        obs::kTraceNoNode, 0, 0, now_, ev.trace_id);
      }
      TGC_CHECK_MSG(on_timer != nullptr, "a timer fired with no callback");
      on_timer(ev.data);
      continue;
    }
    const auto buffer = static_cast<std::uint32_t>(ev.data);
    const graph::VertexId from = from_[ev.link];
    const graph::VertexId to = to_[ev.link];
    obs::NodeTelemetry* const nt = obs::node_telemetry();
    if (!active_[to]) {  // deactivated while in flight
      if (nt != nullptr) nt->on_drop(from, to);
      if (traced) {
        obs::trace_emit(obs::TraceKind::kDrop, to, from, ev.type, 0, now_,
                        ev.trace_id);
      }
      release(buffer);
      continue;
    }
    const std::span<const std::uint32_t> payload(buffers_[buffer]);
    if (nt != nullptr) nt->on_deliver(to, from, payload.size());
    if (traced) {
      obs::trace_emit(obs::TraceKind::kDeliver, to, from, ev.type,
                      static_cast<std::uint32_t>(payload.size()), now_,
                      ev.trace_id);
    }
    on_deliver(now_, Delivery{ev.link, from, to, ev.type, buffer, payload,
                              ev.trace_id});
    release(buffer);
  }
  return now_;
}

namespace {

/// One combined "round message" per (sender, receiver, round): payload is
/// [round, count, (type, len, words...) * count], where count is 1 for the
/// sender's broadcast and 0 for a silent round. Serving simultaneously as
/// the α-synchronizer's end-of-round beacon, it makes per-link ordering a
/// non-issue: a node advances exactly when it has one round-r message from
/// every active neighbor, and by then it holds all round-r protocol traffic.
/// Over lossy links every round message is acked and retransmitted until
/// acked; receivers deduplicate.
constexpr std::uint32_t kMsgRound = 0xa1fa;
constexpr std::uint32_t kMsgAck = 0xa1fb;

/// Timer tag of the retransmission of (link, round).
std::uint64_t retransmit_tag(std::uint32_t link, std::uint32_t round) {
  return static_cast<std::uint64_t>(link) << 32 | round;
}

}  // namespace

AlphaSynchronizer::AlphaSynchronizer(AsyncEngine& engine,
                                     double retransmit_interval)
    : engine_(&engine), retransmit_interval_(retransmit_interval) {
  TGC_CHECK_MSG(
      std::isfinite(retransmit_interval) && retransmit_interval > 0.0,
      "the retransmit interval must be finite and positive");
}

void AlphaSynchronizer::deactivate(graph::VertexId v) {
  engine_->deactivate(v);
  if (v < slots_.size()) {  // never consumed now
    clear(slots_[v][0]);
    clear(slots_[v][1]);
  }
}

void AlphaSynchronizer::clear(Slot& s) {
  for (const Arrival& a : s.arrivals) engine_->release(a.buffer);
  s.arrivals.clear();
  s.messages = 0;
}

/// Sends an outgoing round message and arms its retransmission timer; the
/// timer's chain ends once the ack has retired the ledger entry.
void AlphaSynchronizer::transmit(std::uint32_t link, std::uint32_t round,
                                 std::uint32_t buffer) {
  engine_->retain(buffer);
  engine_->send_link(link, kMsgRound, buffer);
  engine_->schedule(retransmit_interval_, retransmit_tag(link, round));
}

void AlphaSynchronizer::on_timer(std::uint64_t tag) {
  const auto link = static_cast<std::uint32_t>(tag >> 32);
  const auto round = static_cast<std::uint32_t>(tag);
  const std::vector<Unacked>& ledger = unacked_[link];
  const auto it = std::find_if(
      ledger.begin(), ledger.end(),
      [&](const Unacked& u) { return u.round == round; });
  if (it == ledger.end()) return;
  ++retransmissions_;
  obs::add(obs::CounterId::kRetransmissions, 1);
  const graph::VertexId from = engine_->link_from(link);
  const graph::VertexId to = engine_->link_to(link);
  if (obs::NodeTelemetry* const nt = obs::node_telemetry()) {
    nt->on_retransmit(from, to);
  }
  if (obs::trace_active()) {
    obs::trace_emit(obs::TraceKind::kRetransmit, from, to, 0, round,
                    engine_->now());
  }
  transmit(link, round, it->buffer);
}

void AlphaSynchronizer::on_deliver(const AsyncEngine::Delivery& msg,
                                   const Handler& handler) {
  if (msg.type == kMsgAck) {
    TGC_CHECK(msg.payload.size() == 1);
    // The acked message went out over the reverse link.
    std::vector<Unacked>& ledger = unacked_[engine_->reverse(msg.link)];
    const auto it = std::find_if(
        ledger.begin(), ledger.end(),
        [&](const Unacked& u) { return u.round == msg.payload[0]; });
    if (it == ledger.end()) return;
    engine_->release(it->buffer);
    *it = ledger.back();
    ledger.pop_back();
    --num_unacked_;
    return;
  }
  if (msg.type != kMsgRound) return;
  TGC_CHECK(msg.payload.size() >= 2);
  const std::uint32_t round = msg.payload[0];
  const std::uint32_t count = msg.payload[1];
  // Always (re-)ack — a previous ack may have been lost.
  const std::uint32_t ack = engine_->acquire();
  engine_->words(ack).push_back(round);
  engine_->send_link(engine_->reverse(msg.link), kMsgAck, ack);
  // A retransmission is a duplicate when its round is already consumed
  // (the receiver heard every neighbor's copy before consuming it) or its
  // sender is already in that round's slot.
  const graph::VertexId v = msg.to;
  const std::size_t executed = executed_[v];
  if (round + 1 < executed) return;
  TGC_CHECK_MSG(round <= executed, "node " << v << " heard round " << round
                                           << " after executing only "
                                           << executed);
  Slot& in = slot(v, round);
  if (in.arrivals.empty()) {
    in.round = round;
  } else {
    TGC_CHECK_MSG(in.round == round, "node " << v << " holds round "
                                             << in.round << " where round "
                                             << round << " belongs");
    for (const Arrival& a : in.arrivals) {
      if (a.from == msg.from) return;
    }
  }
  engine_->retain(msg.buffer);
  in.arrivals.push_back(Arrival{msg.from, msg.buffer, msg.trace_id});
  in.messages += count;
  if (obs::NodeTelemetry* const nt = obs::node_telemetry()) {
    // Synchronizer backlog: protocol messages buffered at the receiver
    // waiting for its round frontier to advance.
    nt->on_backlog(v, slots_[v][0].messages + slots_[v][1].messages);
  }
  try_advance(v, handler);
}

/// Executes round `executed_[v]` at v: the handler consumes the previous
/// round's messages, which view the slot's buffers until it returns, and its
/// broadcast ships as this round's combined message, one buffer shared by
/// every active neighbour's link.
void AlphaSynchronizer::execute(graph::VertexId v, const Handler& handler) {
  const std::size_t round_index = executed_[v];
  Slot* consumed = nullptr;
  inbox_.clear();
  if (round_index > 0) {
    Slot& in = slot(v, round_index - 1);
    if (!in.arrivals.empty()) {
      TGC_CHECK(in.round == round_index - 1);
      consumed = &in;
      for (const Arrival& a : in.arrivals) {
        const std::span<const std::uint32_t> p(engine_->words(a.buffer));
        TGC_CHECK(p[1] <= 1);
        if (p[1] == 0) continue;
        TGC_CHECK(p.size() >= 4 && p[3] == p.size() - 4);
        // Protocol messages inherit the transport message's flow id, so a
        // handler-level consumer still correlates with the causal send
        // chain.
        inbox_.push_back(Message{a.from, p[2], p.subspan(4), a.trace_id});
      }
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
  const auto round32 = static_cast<std::uint32_t>(round_index);
  // [round, count, type, len, words...]; a silent round sends [round, 0].
  const std::uint32_t buffer = engine_->acquire();
  std::vector<std::uint32_t>& w = engine_->words(buffer);
  w.assign({round32, 0, 0, 0});
  Broadcast out(w);
  handler(v, std::span<const Message>(inbox_), out);
  if (out.sent()) {
    w[1] = 1;
    w[2] = out.type();
    w[3] = static_cast<std::uint32_t>(w.size() - 4);
  } else {
    w.resize(2);
  }
  if (consumed != nullptr) clear(*consumed);
  if (traced) {
    obs::trace_emit(obs::TraceKind::kHandlerEnd, v, obs::kTraceNoNode, 0,
                    static_cast<std::uint32_t>(round_index + 1),
                    engine_->now());
  }
  const std::uint32_t first = engine_->first_link(v);
  const auto nbrs = engine_->graph().neighbors(v);
  for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
    if (!engine_->is_active(nbrs[i])) continue;  // matches RoundEngine's drop
    engine_->retain(buffer);
    unacked_[first + i].push_back(Unacked{round32, buffer});
    ++num_unacked_;
    transmit(first + i, round32, buffer);
  }
  engine_->release(buffer);
  ++executed_[v];
}

void AlphaSynchronizer::try_advance(graph::VertexId v,
                                    const Handler& handler) {
  while (executed_[v] < target_rounds_) {
    if (executed_[v] > 0) {
      const Slot& in = slot(v, executed_[v] - 1);
      // `have` can exceed the neighbor count when a neighbor was deactivated
      // after sending that round's beacon (between run_rounds calls);
      // advancement then proceeds exactly as RoundEngine would.
      const std::size_t have = in.round == executed_[v] - 1
                                   ? in.arrivals.size()
                                   : 0;
      if (have < degree_[v]) break;
    }
    execute(v, handler);
  }
}

void AlphaSynchronizer::run_rounds(std::size_t rounds,
                                   const Handler& handler) {
  if (rounds == 0) return;
  const graph::Graph& g = engine_->graph();
  const std::size_t n = g.num_vertices();
  if (executed_.empty() && n > 0) {
    executed_.assign(n, 0);
    degree_.assign(n, 0);
    slots_.resize(n);
    unacked_.resize(engine_->first_link(static_cast<graph::VertexId>(n)));
  }
  // Deactivations are only legal between calls (the network is quiescent
  // then), so per-call active degrees are exact.
  for (graph::VertexId v = 0; v < n; ++v) {
    degree_[v] = 0;
    if (!engine_->is_active(v)) continue;
    for (const graph::VertexId u : g.neighbors(v)) {
      if (engine_->is_active(u)) ++degree_[v];
    }
  }
  target_rounds_ += rounds;
  TGC_LOG(kDebug) << "alpha-sync batch" << obs::kv("rounds", rounds)
                  << obs::kv("target", target_rounds_)
                  << obs::kv("sim_now", engine_->now());

  // Kick off; nodes whose previous-round inboxes are already complete (all
  // of round r-1 was delivered before the last call returned) run at once.
  for (graph::VertexId v = 0; v < n; ++v) {
    if (engine_->is_active(v)) try_advance(v, handler);
  }

  engine_->run(
      [&](double /*now*/, const AsyncEngine::Delivery& msg) {
        on_deliver(msg, handler);
      },
      [&](std::uint64_t tag) { on_timer(tag); });

  // Quiescent: a drained queue means every retransmit chain has ended, so
  // every round message was acked; each active node buffers only the round
  // its next call consumes first.
  stats_ = engine_->stats();
  stats_.rounds = target_rounds_;
  TGC_CHECK_MSG(num_unacked_ == 0, "synchronizer left a round message unacked");
  for (graph::VertexId v = 0; v < n; ++v) {
    if (engine_->is_active(v)) {
      TGC_CHECK_MSG(executed_[v] == target_rounds_,
                    "synchronizer stalled at node " << v);
      TGC_CHECK_MSG(slot(v, target_rounds_).arrivals.empty(),
                    "node " << v << " buffers a consumed or future round");
    }
  }
}

}  // namespace tgc::sim
