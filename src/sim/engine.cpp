#include "tgcover/sim/engine.hpp"

#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::sim {

void Broadcast::send(std::uint32_t type, std::span<const std::uint32_t> words) {
  TGC_CHECK_MSG(!sent_, "a node broadcasts at most once per round");
  sent_ = true;
  type_ = type;
  words_->insert(words_->end(), words.begin(), words.end());
}

RoundEngine::RoundEngine(const graph::Graph& g)
    : g_(&g),
      active_(g.num_vertices(), true),
      words_(g.num_vertices()),
      inbox_(g.num_vertices()),
      next_inbox_(g.num_vertices()) {}

void RoundEngine::deactivate(graph::VertexId v) {
  TGC_CHECK(v < active_.size());
  active_[v] = false;
  if (obs::NodeTelemetry* const nt = obs::node_telemetry()) {
    // Queued deliveries die with the radio: charge them to their senders as
    // drops so the conservation ledger (sent = received + lost + dropped +
    // undelivered) stays exact across mid-protocol deactivation.
    for (const Message& m : inbox_[v]) nt->on_drop(m.from, v);
    for (const Message& m : next_inbox_[v]) nt->on_drop(m.from, v);
  }
  inbox_[v].clear();
  next_inbox_[v].clear();
  if (obs::trace_active()) {
    obs::trace_emit(obs::TraceKind::kDeactivate, v, obs::kTraceNoNode, 0, 0,
                    static_cast<double>(stats_.rounds));
  }
}

/// Counts, traces and queues `from`'s broadcast for each neighbour in
/// adjacency order; the queued messages view `words`.
void RoundEngine::transmit(graph::VertexId from, std::uint32_t type,
                           std::span<const std::uint32_t> words) {
  obs::NodeTelemetry* const nt = obs::node_telemetry();
  const bool traced = obs::trace_active();
  // The logical clock of the synchronous engine is the round counter
  // (incremented at run_round entry, so this is the current round).
  const auto round = static_cast<double>(stats_.rounds);
  for (const graph::VertexId to : g_->neighbors(from)) {
    ++stats_.messages;
    stats_.payload_words += words.size();
    obs::add(obs::CounterId::kMessages, 1);
    obs::add(obs::CounterId::kPayloadWords, words.size());
    if (nt != nullptr) nt->on_send(from, to, words.size());
    std::uint64_t trace_id = 0;
    if (traced) {
      trace_id = obs::trace_emit(obs::TraceKind::kSend, from, to, type,
                                 static_cast<std::uint32_t>(words.size()),
                                 round);
      if (!active_[to]) {
        obs::trace_emit(obs::TraceKind::kDrop, to, from, type, 0, round,
                        trace_id);
      }
    }
    if (!active_[to]) {  // transmitted into the void
      if (nt != nullptr) nt->on_drop(from, to);
      continue;
    }
    next_inbox_[to].push_back(Message{from, type, words, trace_id});
  }
}

void RoundEngine::run_round(const Handler& handler) {
  ++stats_.rounds;
  const bool traced = obs::trace_active();
  const auto round32 = static_cast<std::uint32_t>(stats_.rounds);
  const auto round = static_cast<double>(stats_.rounds);
  if (traced) {
    obs::trace_emit(obs::TraceKind::kEngineRound, obs::kTraceNoNode,
                    obs::kTraceNoNode, 0, round32, round);
  }
  obs::NodeTelemetry* const nt = obs::node_telemetry();
  for (graph::VertexId v = 0; v < g_->num_vertices(); ++v) {
    if (!active_[v]) continue;
    if (nt != nullptr) {
      for (const Message& m : inbox_[v]) {
        nt->on_deliver(v, m.from, m.payload.size());
      }
    }
    if (traced) {
      obs::trace_emit(obs::TraceKind::kHandlerBegin, v, obs::kTraceNoNode, 0,
                      round32, round);
      // Deliveries land inside the handler span so Perfetto binds the flow
      // arrows to the enclosing slice.
      for (const Message& m : inbox_[v]) {
        obs::trace_emit(obs::TraceKind::kDeliver, v, m.from, m.type,
                        static_cast<std::uint32_t>(m.payload.size()), round,
                        m.trace_id);
      }
    }
    // The inbox views last round's buffers; this round writes the other.
    std::vector<std::uint32_t>& words = words_[v][stats_.rounds & 1];
    words.clear();
    Broadcast out(words);
    handler(v, std::span<const Message>(inbox_[v]), out);
    if (out.sent()) transmit(v, out.type(), words);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kHandlerEnd, v, obs::kTraceNoNode, 0,
                      round32, round);
    }
    inbox_[v].clear();
  }
  std::swap(inbox_, next_inbox_);
  for (auto& box : next_inbox_) box.clear();
}

}  // namespace tgc::sim
