#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "tgcover/obs/obs.hpp"

namespace tgc::obs {

/// Causal event tracing for the message-passing simulators.
///
/// The registry (obs.hpp) answers "how much work happened"; the tracer
/// answers "in what order, and caused by what". Each event is a fixed-size
/// POD stamped with a process-global sequence number; send events mint a
/// `flow` id that the matching deliver/drop/loss events (and the message
/// itself, via sim::Message::trace_id) carry, so an exported trace encodes
/// the full message-causality DAG. Exports: Chrome trace-event JSON for
/// Perfetto (trace_export.hpp) and a compact deterministic JSONL analyzed by
/// `tgcover report`.
///
/// Overhead policy mirrors the counters: inactive costs one relaxed bool
/// load per site. When active, events append to one vector guarded by a
/// mutex that is uncontended in practice: the simulators emit from the
/// driving thread only, and VPT worker threads emit nothing, which is also
/// what makes traces byte-identical across --threads values. Sequence
/// numbers are taken under the mutex, so the buffer is always in seq order.

/// Event discriminator. Keep in sync with kTraceKindNames (trace.cpp).
enum class TraceKind : std::uint8_t {
  kSchedRoundBegin,  ///< scheduler deletion round opens (value = round)
  kSchedRoundEnd,    ///< ... closes (type 1 = deletions, 0 = fixpoint probe)
  kPhaseBegin,       ///< scheduler phase opens (type = TracePhase)
  kPhaseEnd,         ///< ... closes
  kEngineRound,      ///< one synchronous engine round starts (value = round)
  kWave,             ///< one round of a protocol flood (type = its message
                     ///< type, value = round within the flood)
  kHandlerBegin,     ///< node handler invocation opens (node, value = round)
  kHandlerEnd,       ///< ... closes
  kSend,             ///< transmission (node -> peer); mints the flow id
  kDeliver,          ///< delivery at `node` from `peer` (flow = send's id)
  kDrop,             ///< delivery dropped: receiver powered down
  kLoss,             ///< transmission lost on the air (value = words)
  kRetransmit,       ///< α-synchronizer retransmission of an unacked message
  kTimerSet,         ///< async timer armed (flow pairs set with fire)
  kTimerFire,        ///< async timer fired
  kVerdict,          ///< VPT verdict at `node` (value 1 = deletable)
  kDeactivate,       ///< node powered down
  kCount
};
inline constexpr std::size_t kNumTraceKinds =
    static_cast<std::size_t>(TraceKind::kCount);

/// Snake_case names used as JSONL `kind` values.
std::string_view trace_kind_name(TraceKind kind);

/// Scheduler phase ids carried in kPhaseBegin/End's `type` field.
enum class TracePhase : std::uint32_t {
  kKhop = 1,      ///< phase 0: k-hop neighbourhood collection
  kVerdicts = 2,  ///< phase 1: local VPT verdicts
  kMis = 3,       ///< phase 2: m-hop MIS election
  kDeletion = 4,  ///< phase 3: deletion floods + power-down
};
std::string_view trace_phase_name(std::uint32_t phase);

/// Sentinel for "no node": scheduler-level events not owned by any node.
inline constexpr std::uint32_t kTraceNoNode = 0xffffffffu;

/// One traced event (fixed-size POD; ~56 bytes). `sim` is the deterministic
/// logical clock — the engine round number on the synchronous engine, the
/// event-loop time on the asynchronous one. `wall_ns` is the only
/// non-deterministic field and is excluded from the JSONL export.
struct TraceEvent {
  std::uint64_t seq = 0;      ///< process-global emission order (1-based)
  std::uint64_t wall_ns = 0;  ///< steady-clock stamp (Chrome export only)
  std::uint64_t flow = 0;     ///< message/timer correlation id (0 = none)
  double sim = 0.0;           ///< logical clock (see above)
  std::uint32_t node = kTraceNoNode;  ///< owning node (receiver for deliver)
  std::uint32_t peer = kTraceNoNode;  ///< other endpoint (sender/dest)
  std::uint32_t type = 0;             ///< message type / TracePhase
  std::uint32_t value = 0;            ///< round / payload words / verdict
  TraceKind kind = TraceKind::kSend;
};

/// True while a trace is being collected. One relaxed load — instrumentation
/// sites guard batches of emissions (and any event-argument computation)
/// behind it.
bool trace_active();

/// Clears the buffer, resets the sequence counter to 1 and activates
/// collection. Call from a quiescent point (no concurrent emitters); the
/// reset is what makes repeated traced runs in one process byte-identical.
void trace_begin();

/// Deactivates collection and hands over the buffer, in sequence order.
std::vector<TraceEvent> trace_end();

/// Appends one event (no-op returning 0 when inactive). Returns the event's
/// sequence number — send/timer-set sites use it as the flow id for the
/// correlated later events.
std::uint64_t trace_emit(TraceKind kind, std::uint32_t node,
                         std::uint32_t peer, std::uint32_t type,
                         std::uint32_t value, double sim,
                         std::uint64_t flow = 0);

}  // namespace tgc::obs
