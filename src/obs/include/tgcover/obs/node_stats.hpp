#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

/// Per-node network & energy telemetry (DESIGN.md §14): a per-node,
/// per-round collector wired into the sim engines' send/deliver/drop paths.
///
/// Where the registry counters (cost.hpp) answer "how many messages did the
/// run cost", NodeTelemetry answers "which nodes carried them": per-node
/// sent/received/lost/dropped message and payload-word counts, per-link
/// traffic folded into a CSR matrix at finalize, α-synchronizer backlog
/// depth and retransmission attribution, and a first-order radio energy
/// model (configurable tx/rx/idle cost) charging each node's battery.
///
/// Activation model. The collector is bound to the *driving thread* through
/// a thread_local pointer (set_node_telemetry): all sim messaging runs on
/// the thread that owns the engine — pool workers only evaluate verdicts,
/// which send nothing — and fleet cells each run whole on one worker, so
/// per-cell instances never race. An unarmed run pays exactly one
/// thread_local pointer load per hook (the same discipline as
/// ExecutionProfiler's relaxed gate), and arming perturbs nothing: the
/// collector only observes calls the engines already make, so schedules,
/// cost streams, and traces stay byte-identical on/off.
///
/// Conservation invariant (enforced by tests/node_stats_test.cpp): the
/// hooks sit exactly where the engines bump the registry counters, so
/// summed per-node `sent` equals registry kMessages, summed `lost` equals
/// kMessagesLost, and summed `retransmits` equals kRetransmissions — on the
/// ideal sync engine, the lossy async engine, and at every thread count.
/// Per node, sent = received-by-peers + lost + dropped + undelivered, where
/// `undelivered` is the in-flight residual of messages still queued when
/// the protocol stopped running rounds.

namespace tgc::obs {

/// First-order radio energy model, charged per message and per active
/// round. Units are abstract "energy units"; only ratios matter for hotspot
/// ranking. Defaults follow the common first-order model where transmission
/// costs about twice reception and idle listening an order less.
struct EnergyModel {
  double tx_cost = 1.0;    ///< per message sent (includes lost/dropped tx)
  double rx_cost = 0.5;    ///< per message received
  double idle_cost = 0.05; ///< per round the node is active
};

/// Cumulative per-node counters (also used for per-round deltas).
struct NodeCounters {
  std::uint64_t sent = 0;        ///< messages transmitted (incl. lost/void)
  std::uint64_t received = 0;    ///< messages delivered to this node
  std::uint64_t lost = 0;        ///< this node's transmissions lost on air
  std::uint64_t dropped = 0;     ///< transmissions dropped (dest inactive)
  std::uint64_t retransmits = 0; ///< α-synchronizer retries charged to sender
  std::uint64_t sent_words = 0;
  std::uint64_t recv_words = 0;
};

/// One per-round, per-node delta record. Only nodes with traffic or
/// backlog activity get a record; idle-only energy accrues silently into
/// the per-node and summary totals (per-round streams stay proportional to
/// traffic, not to n × rounds).
struct NodeRoundRecord {
  std::uint64_t round = 0;
  std::uint32_t node = 0;
  NodeCounters delta;
  std::uint64_t backlog_peak = 0;  ///< max synchronizer backlog this round
  double energy = 0.0;             ///< energy charged this round
};

/// Per-link traffic in CSR form (finalized from the hot-path hash map).
struct LinkMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;   ///< n + 1 offsets into cols/...
  std::vector<std::uint32_t> col;     ///< destination node per entry
  std::vector<std::uint64_t> messages;
  std::vector<std::uint64_t> words;
};

/// Everything finalize() derives from the raw counters.
struct NodeTelemetrySummary {
  std::uint64_t total_sent = 0;
  std::uint64_t total_received = 0;
  std::uint64_t total_lost = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_sent_words = 0;
  /// In-flight residual: sent - received - lost - dropped (messages still
  /// queued when the protocol stopped running rounds). Never negative.
  std::uint64_t undelivered = 0;
  double total_energy = 0.0;
  double max_node_energy = 0.0;
  std::uint32_t max_energy_node = 0;
  /// Gini coefficient of per-node traffic (sent + received): 0 = perfectly
  /// even load, → 1 = one node carries everything.
  double traffic_gini = 0.0;
  std::uint64_t rounds = 0;
};

class NodeTelemetry {
 public:
  explicit NodeTelemetry(std::size_t num_nodes, EnergyModel energy = {});

  // ------------------------------------------------ hot-path hooks
  // Called by the sim engines through the thread_local binding below; each
  // is a handful of array increments on pre-sized vectors.
  void on_send(std::uint32_t from, std::uint32_t to, std::size_t words);
  void on_deliver(std::uint32_t to, std::uint32_t from, std::size_t words);
  void on_drop(std::uint32_t from, std::uint32_t to);
  void on_loss(std::uint32_t from, std::uint32_t to);
  void on_retransmit(std::uint32_t from, std::uint32_t to);
  /// Synchronizer buffered-message depth at `node` after an arrival.
  void on_backlog(std::uint32_t node, std::size_t depth);

  // ------------------------------------------------ round boundaries
  /// Closes one protocol round: charges idle energy to every node active in
  /// `active_mask`, converts the since-last-call counter deltas into
  /// NodeRoundRecords, and advances the round index. The schedulers call
  /// this at the same boundary as RoundCollector::end_round.
  void end_round(const std::vector<bool>& active_mask);

  /// Flushes any post-round residual activity (no idle charge) and derives
  /// the summary, link CSR, and top-talker ranking. Idempotent-hostile:
  /// call exactly once, after the run completed.
  void finalize();

  // ------------------------------------------------ results
  std::size_t num_nodes() const { return nodes_.size(); }
  const EnergyModel& energy_model() const { return energy_; }
  const std::vector<NodeCounters>& node_counters() const { return nodes_; }
  const std::vector<double>& node_energy() const { return energy_by_node_; }
  const std::vector<std::uint64_t>& node_backlog_peak() const {
    return backlog_peak_;
  }
  const std::vector<std::uint64_t>& node_rounds_active() const {
    return rounds_active_;
  }
  const std::vector<NodeRoundRecord>& round_records() const {
    return round_records_;
  }
  const LinkMatrix& links() const { return links_; }
  const NodeTelemetrySummary& summary() const { return summary_; }
  /// Node ids ranked by sent + received (desc, ties by id asc).
  const std::vector<std::uint32_t>& top_talkers() const {
    return top_talkers_;
  }
  bool finalized() const { return finalized_; }

 private:
  void flush_round_deltas(const std::vector<bool>* active_mask);

  EnergyModel energy_;
  std::vector<NodeCounters> nodes_;
  std::vector<NodeCounters> prev_;  ///< snapshot at last end_round
  std::vector<double> energy_by_node_;
  std::vector<std::uint64_t> backlog_peak_;        ///< all-run peak
  std::vector<std::uint64_t> round_backlog_peak_;  ///< since last end_round
  std::vector<std::uint64_t> rounds_active_;
  std::vector<NodeRoundRecord> round_records_;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      link_traffic_;  ///< from * n + to -> (messages, words)
  LinkMatrix links_;
  NodeTelemetrySummary summary_;
  std::vector<std::uint32_t> top_talkers_;
  std::uint64_t round_ = 0;
  bool finalized_ = false;
};

// ------------------------------------------------------------ the binding

/// Binds `telemetry` (may be nullptr to unbind) to the calling thread. The
/// engines observe through node_telemetry() — one thread_local load when
/// unarmed, which is the whole cost of an off run.
void set_node_telemetry(NodeTelemetry* telemetry);
NodeTelemetry* node_telemetry();

// ------------------------------------------------------------ exporters

/// Ground-truth node coordinate for the spatial dashboard overlay.
struct NodePosition {
  double x = 0.0;
  double y = 0.0;
};

/// The full single-run JSONL stream body (the bundle writer puts the
/// manifest header line first): node_telemetry_header, optional node_pos
/// lines (one per node when positions are provided — makes the report's
/// spatial overlay self-contained),
/// node_round delta records, link rows, per-node node_summary lines, a
/// talkers line, and a closing telemetry_summary. Requires finalize().
void write_node_telemetry_jsonl(const NodeTelemetry& telemetry,
                                std::span<const NodePosition> positions,
                                std::ostream& out);

/// The compact per-run form fleet appends into its bundle's nodes.jsonl:
/// node_summary and telemetry_summary lines only, each tagged with the
/// fleet run id. Requires finalize().
void write_node_summary_jsonl(const NodeTelemetry& telemetry,
                              std::uint64_t run_id, std::ostream& out);

}  // namespace tgc::obs
