// Per-node network & energy telemetry (DESIGN.md §14): collector unit
// behaviour (energy model, link CSR, Gini, talkers, round records) plus the
// conservation invariant — summed per-node counters must reconcile exactly
// with the engine-level traffic statistics on the sync engine, the lossy
// async engine, and at every thread count — and the guarantee that arming
// the collector perturbs nothing.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "tgcover/boundary/label.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::obs {
namespace {

using core::DccAsyncOptions;
using core::DccConfig;
using core::DccDistributedResult;
using graph::VertexId;

// ------------------------------------------------------------ unit tests

TEST(NodeTelemetry, EnergyModelCharges) {
  // The fixed first-order model: tx 1.0 per send, rx 0.5 per delivery,
  // idle 0.05 per awake round.
  NodeTelemetry t(3);
  t.on_send(0, 1, 4);
  t.on_send(0, 1, 4);
  t.on_deliver(1, 0, 4);
  t.end_round(1, {true, true, true});
  t.end_round(2, {true, true, false});
  t.finalize();
  // Node 0: 2 sends + 2 active rounds; node 1: 1 delivery + 2 active
  // rounds; node 2: one active round of idle listening only.
  EXPECT_DOUBLE_EQ(t.node_energy()[0], 2 * 1.0 + 2 * 0.05);
  EXPECT_DOUBLE_EQ(t.node_energy()[1], 0.5 + 2 * 0.05);
  EXPECT_DOUBLE_EQ(t.node_energy()[2], 0.05);
  EXPECT_EQ(t.node_rounds_active()[2], 1u);
  EXPECT_DOUBLE_EQ(t.summary().total_energy,
                   t.node_energy()[0] + t.node_energy()[1] +
                       t.node_energy()[2]);
  EXPECT_DOUBLE_EQ(t.summary().max_node_energy, t.node_energy()[0]);
  EXPECT_EQ(t.summary().max_energy_node, 0u);
  // The stream header echoes the model the report's energy note prints.
  std::ostringstream stream;
  write_node_telemetry_jsonl(t, {}, stream);
  EXPECT_NE(stream.str().find("\"energy_tx\":1.000000,\"energy_rx\":0.500000,"
                              "\"energy_idle\":0.050000}"),
            std::string::npos)
      << stream.str();
}

TEST(NodeTelemetry, RoundRecordsOnlyForTraffic) {
  // Idle nodes accrue energy silently; only nodes with activity get a
  // per-round record, so the stream scales with traffic, not n x rounds.
  NodeTelemetry t(100);
  t.on_send(7, 8, 2);
  std::vector<bool> active(100, true);
  t.end_round(0, active);
  t.end_round(1, active);  // a fully silent round
  t.finalize();
  ASSERT_EQ(t.round_records().size(), 1u);
  EXPECT_EQ(t.round_records()[0].round, 0u);
  EXPECT_EQ(t.round_records()[0].node, 7u);
  EXPECT_EQ(t.round_records()[0].delta.sent, 1u);
  EXPECT_GT(t.node_energy()[50], 0.0);  // idle charges still accrued
  EXPECT_EQ(t.summary().rounds, 2u);
}

TEST(NodeTelemetry, LinkMatrixCsr) {
  NodeTelemetry t(4);
  t.on_send(2, 0, 3);
  t.on_send(2, 0, 5);
  t.on_send(2, 3, 1);
  t.on_send(0, 1, 2);
  t.finalize();
  const LinkMatrix& m = t.links();
  ASSERT_EQ(m.n, 4u);
  ASSERT_EQ(m.row_ptr.size(), 5u);
  // Row 0: one link to 1. Row 2: links to 0 and 3, column-sorted.
  EXPECT_EQ(m.row_ptr[0], 0u);
  EXPECT_EQ(m.row_ptr[1], 1u);
  EXPECT_EQ(m.row_ptr[2], 1u);
  EXPECT_EQ(m.row_ptr[3], 3u);
  EXPECT_EQ(m.row_ptr[4], 3u);
  EXPECT_EQ(m.col[0], 1u);
  EXPECT_EQ(m.col[1], 0u);
  EXPECT_EQ(m.col[2], 3u);
  EXPECT_EQ(m.messages[1], 2u);
  EXPECT_EQ(m.words[1], 8u);
  EXPECT_EQ(m.messages[2], 1u);
}

TEST(NodeTelemetry, GiniAndTalkers) {
  {
    // Perfectly even load: Gini 0.
    NodeTelemetry even(4);
    for (std::uint32_t v = 0; v < 4; ++v) even.on_send(v, (v + 1) % 4, 1);
    even.finalize();
    EXPECT_DOUBLE_EQ(even.summary().traffic_gini, 0.0);
    NodeTelemetry silent(4);
    silent.finalize();
    EXPECT_DOUBLE_EQ(silent.summary().traffic_gini, 0.0);  // no div-by-zero
    EXPECT_TRUE(silent.top_talkers().empty());
  }
  {
    // One dominant talker; ranking is traffic-desc with id tiebreak and
    // silent nodes never appear.
    NodeTelemetry t(20);
    for (int i = 0; i < 10; ++i) t.on_send(5, 6, 1);
    t.on_send(3, 2, 1);
    t.on_send(9, 2, 1);
    t.finalize();
    ASSERT_GE(t.top_talkers().size(), 3u);
    EXPECT_EQ(t.top_talkers()[0], 5u);
    EXPECT_GT(t.summary().traffic_gini, 0.5);
    for (const std::uint32_t v : t.top_talkers()) {
      EXPECT_GT(t.node_counters()[v].sent + t.node_counters()[v].received,
                0u);
    }
    EXPECT_LE(t.top_talkers().size(), 10u);
  }
}

TEST(NodeTelemetry, BacklogPeaks) {
  NodeTelemetry t(3);
  t.on_backlog(1, 4);
  t.on_backlog(1, 2);
  std::vector<bool> active(3, true);
  t.end_round(1, active);
  t.on_backlog(1, 7);
  t.end_round(2, active);
  t.finalize();
  EXPECT_EQ(t.node_backlog_peak()[1], 7u);
  ASSERT_EQ(t.round_records().size(), 2u);
  EXPECT_EQ(t.round_records()[0].backlog_peak, 4u);
  EXPECT_EQ(t.round_records()[1].backlog_peak, 7u);
}

TEST(NodeTelemetry, UndeliveredResidual) {
  NodeTelemetry t(2);
  t.on_send(0, 1, 1);
  t.on_send(0, 1, 1);
  t.on_deliver(1, 0, 1);
  t.finalize();
  EXPECT_EQ(t.summary().total_sent, 2u);
  EXPECT_EQ(t.summary().total_received, 1u);
  EXPECT_EQ(t.summary().undelivered, 1u);
}

TEST(NodeTelemetry, ThreadLocalBinding) {
  // A RunScope binds the collector to this thread and numbers the round
  // boundaries (setup = 0, then 1, 2, ...); the next scope starts over.
  EXPECT_EQ(node_telemetry(), nullptr);
  NodeTelemetry t(2);
  const std::vector<bool> active(2, true);
  {
    const RunScope scope({nullptr, &t, nullptr});
    EXPECT_EQ(node_telemetry(), &t);
    node_telemetry()->on_send(0, 1, 1);
    setup_end(active);
    round_end(active, 0, 0);
    node_telemetry()->on_send(1, 0, 1);
    round_end(active, 0, 0);
  }
  EXPECT_EQ(node_telemetry(), nullptr);
  round_end(active, 0, 0);  // unbound: reaches no collector
  {
    const RunScope scope({nullptr, &t, nullptr});
    node_telemetry()->on_send(0, 1, 1);
    round_end(active, 0, 0);
  }
  t.finalize();
  ASSERT_EQ(t.round_records().size(), 3u);
  EXPECT_EQ(t.round_records()[0].round, 0u);
  EXPECT_EQ(t.round_records()[1].round, 2u);
  EXPECT_EQ(t.round_records()[2].round, 1u);
  EXPECT_EQ(t.summary().rounds, 4u);
}

TEST(NodeTelemetry, JsonlStreamsAreDeterministic) {
  const auto build = [] {
    NodeTelemetry t(3);
    t.on_send(0, 1, 2);
    t.on_send(1, 2, 3);
    t.on_deliver(1, 0, 2);
    t.on_backlog(2, 1);
    std::vector<bool> active(3, true);
    t.end_round(1, active);
    t.finalize();
    return t;
  };
  const NodeTelemetry a = build();
  const NodeTelemetry b = build();
  const std::vector<NodePosition> pos = {{0.0, 0.0}, {1.0, 0.5}, {2.0, 1.0}};
  std::ostringstream sa, sb;
  write_node_telemetry_jsonl(a, pos, sa);
  write_node_telemetry_jsonl(b, pos, sb);
  EXPECT_EQ(sa.str(), sb.str());
  // Every node gets a summary row even when silent — a missing row is how
  // regressions hide.
  EXPECT_NE(sa.str().find("\"type\":\"node_summary\",\"node\":2,"),
            std::string::npos);
  std::ostringstream compact;
  write_node_summary_jsonl(a, 42, compact);
  EXPECT_NE(compact.str().find("\"run\":42,"), std::string::npos);
}

// ---------------------------------------------------- conservation invariant

struct Instance {
  gen::Deployment dep;
  std::vector<bool> internal;
};

Instance make_instance(std::uint64_t seed, std::size_t n = 110) {
  util::Rng rng(seed);
  Instance inst;
  inst.dep = gen::random_connected_udg(n, 4.2, 1.0, rng);
  const auto boundary_set =
      boundary::label_outer_band(inst.dep.positions, inst.dep.area, 1.0);
  inst.internal.assign(inst.dep.graph.num_vertices(), false);
  for (VertexId v = 0; v < inst.dep.graph.num_vertices(); ++v) {
    inst.internal[v] = !boundary_set[v];
  }
  return inst;
}

void check_ledger(const NodeTelemetry& t, const DccDistributedResult& run) {
  const NodeTelemetrySummary& s = t.summary();
  // Global reconciliation: the collector saw exactly the traffic the
  // engines counted.
  EXPECT_EQ(s.total_sent, run.traffic.messages);
  EXPECT_EQ(s.total_sent_words, run.traffic.payload_words);
  EXPECT_EQ(s.total_lost, run.messages_lost);
  EXPECT_EQ(s.total_retransmits, run.retransmissions);
  // The ledger closes: every transmission is delivered, lost on the air,
  // dropped at an inactive destination, or still in flight at shutdown.
  EXPECT_EQ(s.total_sent,
            s.total_received + s.total_lost + s.total_dropped + s.undelivered);
  // Componentwise check too — a global sum can hide compensating per-node
  // errors.
  std::uint64_t sent = 0, received = 0, lost = 0, dropped = 0, retrans = 0;
  for (const NodeCounters& c : t.node_counters()) {
    sent += c.sent;
    received += c.received;
    lost += c.lost;
    dropped += c.dropped;
    retrans += c.retransmits;
  }
  EXPECT_EQ(sent, s.total_sent);
  EXPECT_EQ(received, s.total_received);
  EXPECT_EQ(lost, s.total_lost);
  EXPECT_EQ(dropped, s.total_dropped);
  EXPECT_EQ(retrans, s.total_retransmits);
}

TEST(NodeTelemetryConservation, SyncDistributed) {
  const Instance inst = make_instance(101);
  for (const unsigned threads : {1u, 2u}) {
    DccConfig config;
    config.tau = 4;
    config.seed = 7;
    config.num_threads = threads;
    NodeTelemetry t(inst.dep.graph.num_vertices());
    const RunScope bind({nullptr, &t, nullptr});
    const DccDistributedResult run =
        core::dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
    t.finalize();
    ASSERT_GT(run.traffic.messages, 0u);
    EXPECT_EQ(run.messages_lost, 0u);
    check_ledger(t, run);
    EXPECT_EQ(t.summary().total_lost, 0u);
    EXPECT_EQ(t.summary().total_retransmits, 0u);
  }
}

TEST(NodeTelemetryConservation, AsyncLossy) {
  const Instance inst = make_instance(103, 90);
  for (const unsigned threads : {1u, 2u}) {
    DccConfig config;
    config.tau = 4;
    config.seed = 11;
    config.num_threads = threads;
    DccAsyncOptions async;
    async.net.loss_probability = 0.15;
    async.net.seed = 77;
    NodeTelemetry t(inst.dep.graph.num_vertices());
    const RunScope bind({nullptr, &t, nullptr});
    const DccDistributedResult run = core::dcc_schedule_distributed_async(
        inst.dep.graph, inst.internal, config, async);
    t.finalize();
    ASSERT_GT(run.messages_lost, 0u);
    ASSERT_GT(run.retransmissions, 0u);
    check_ledger(t, run);
  }
}

TEST(NodeTelemetryConservation, AsyncLossless) {
  const Instance inst = make_instance(107, 80);
  DccConfig config;
  config.tau = 3;
  config.seed = 5;
  NodeTelemetry t(inst.dep.graph.num_vertices());
  const RunScope bind({nullptr, &t, nullptr});
  const DccDistributedResult run = core::dcc_schedule_distributed_async(
      inst.dep.graph, inst.internal, config, {});
  t.finalize();
  EXPECT_EQ(run.messages_lost, 0u);
  check_ledger(t, run);
}

TEST(NodeTelemetryConservation, ArmingDoesNotPerturbSchedule) {
  // The whole point of an observer: the armed run must compute the
  // bit-identical schedule and radio cost as the unarmed one.
  const Instance inst = make_instance(109, 80);
  DccConfig config;
  config.tau = 4;
  config.seed = 3;
  const DccDistributedResult off =
      core::dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
  NodeTelemetry t(inst.dep.graph.num_vertices());
  DccDistributedResult on;
  {
    const RunScope bind({nullptr, &t, nullptr});
    on = core::dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
  }
  t.finalize();
  EXPECT_EQ(on.schedule.active, off.schedule.active);
  EXPECT_EQ(on.schedule.rounds, off.schedule.rounds);
  EXPECT_EQ(on.traffic.messages, off.traffic.messages);
  EXPECT_EQ(on.traffic.payload_words, off.traffic.payload_words);
  EXPECT_EQ(t.summary().total_sent, off.traffic.messages);
}

}  // namespace
}  // namespace tgc::obs
