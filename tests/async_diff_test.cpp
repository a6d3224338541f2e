// Differential test for the α-synchronizer transport: the flat-state
// sim::AsyncEngine + sim::AlphaSynchronizer against the reference in
// async_reference.hpp (the engine before the rewrite). Both run the same
// protocol on the same network with the same seeds; they must agree on the
// full causal trace (every send, loss, drop, delivery, timer and handler
// span with its sim time and relative flow id), on every inbox a handler
// sees, on node telemetry, and on the traffic, loss and retransmission
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "async_reference.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/sim/async.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {
namespace {

using graph::Graph;
using graph::VertexId;

struct Case {
  std::uint64_t seed = 1;
  double loss = 0.0;
  double min_delay = 0.5;
  double max_delay = 1.5;
  double retransmit = 4.0;
  std::size_t rounds = 12;
  bool one_call = true;  ///< else run_round at a time
  VertexId victim = graph::kInvalidVertex;  ///< deactivated at the midpoint
};

std::string describe(const Case& c) {
  std::ostringstream s;
  s << "seed " << c.seed << " loss " << c.loss << " delay [" << c.min_delay
    << ", " << c.max_delay << "] retransmit " << c.retransmit
    << (c.one_call ? " one call" : " round at a time") << " victim "
    << c.victim;
  return s.str();
}

struct TraceRecord {
  obs::TraceKind kind;
  std::uint32_t node, peer, type, value;
  double sim;
  std::uint64_t flow;  ///< relative to the run's first event (0 = none)
  bool operator==(const TraceRecord&) const = default;
};

struct InboxRecord {
  VertexId node;
  std::size_t round;
  VertexId from;
  std::uint32_t type;
  std::vector<std::uint32_t> payload;
  bool operator==(const InboxRecord&) const = default;
};

struct Outcome {
  std::vector<TraceRecord> trace;
  std::vector<InboxRecord> inboxes;
  std::string nodes;  ///< node telemetry JSONL
  std::size_t messages = 0;
  std::size_t payload_words = 0;
  std::size_t messages_lost = 0;
  std::size_t retransmissions = 0;
  std::size_t rounds = 0;
  double sim_duration = 0.0;
};

/// A protocol whose traffic shape depends on everything it hears, in
/// order: each node folds its inbox into a running hash and broadcasts 0–4
/// words, or up to ~90 words (so combined messages cross the pool's
/// capacity cut), or stays silent in some rounds.
SyncRunner::Handler chatty(std::vector<std::size_t>& calls,
                           std::vector<std::uint64_t>& state,
                           std::vector<InboxRecord>& seen) {
  return [&calls, &state, &seen](VertexId node,
                                 std::span<const Message> inbox,
                                 Broadcast& out) {
    const std::size_t round = calls[node]++;
    std::uint64_t h = state[node];
    for (const Message& m : inbox) {
      seen.push_back(InboxRecord{node, round, m.from, m.type,
                                 {m.payload.begin(), m.payload.end()}});
      h = util::splitmix64(h ^ (m.from * 131 + m.type));
      for (const std::uint32_t w : m.payload) h = util::splitmix64(h + w);
    }
    state[node] = h;
    if ((h & 7) == 0) return;  // a silent round: the beacon alone
    if ((h & 0x18) != 0x18) {
      std::vector<std::uint32_t> words(h % 5);
      for (std::size_t i = 0; i < words.size(); ++i) {
        words[i] = static_cast<std::uint32_t>(h >> (8 * i));
      }
      out.send(1, words);
      return;
    }
    std::vector<std::uint32_t> long_words((h >> 40) % 90);
    for (std::size_t i = 0; i < long_words.size(); ++i) {
      long_words[i] = static_cast<std::uint32_t>(round * 1000 + i);
    }
    out.send(2, long_words);
  };
}

template <typename Engine>
typename Engine::Options options_of(const Case& c) {
  typename Engine::Options opt;
  opt.min_delay = c.min_delay;
  opt.max_delay = c.max_delay;
  opt.loss_probability = c.loss;
  opt.seed = c.seed;
  return opt;
}

std::vector<TraceRecord> relative(const std::vector<obs::TraceEvent>& events) {
  std::vector<TraceRecord> out;
  const std::uint64_t base = events.empty() ? 0 : events.front().seq - 1;
  for (const obs::TraceEvent& e : events) {
    out.push_back(TraceRecord{e.kind, e.node, e.peer, e.type, e.value, e.sim,
                              e.flow == 0 ? 0 : e.flow - base});
  }
  return out;
}

/// Runs `protocol(sync)` traced and with node telemetry bound, and collects
/// the transport counters.
template <typename Engine, typename Sync, typename Protocol>
Outcome observe(const Graph& g, const Case& c, Protocol&& protocol) {
  Outcome out;
  obs::NodeTelemetry nodes(g.num_vertices());
  obs::trace_begin();
  {
    const obs::RunScope scope(obs::RunCollectors{nullptr, &nodes, nullptr});
    Engine engine(g, options_of<Engine>(c));
    Sync sync(engine, c.retransmit);
    protocol(sync, out);
    out.messages = sync.stats().messages;
    out.payload_words = sync.stats().payload_words;
    out.rounds = sync.stats().rounds;
    out.messages_lost = engine.messages_lost();
    out.retransmissions = sync.retransmissions();
    out.sim_duration = engine.now();
  }
  out.trace = relative(obs::trace_end());
  nodes.finalize();
  std::ostringstream jsonl;
  obs::write_node_telemetry_jsonl(nodes, {}, jsonl);
  out.nodes = jsonl.str();
  return out;
}

template <typename Engine, typename Sync>
Outcome run_chatty(const Graph& g, const Case& c) {
  return observe<Engine, Sync>(g, c, [&](Sync& sync, Outcome& out) {
    std::vector<std::size_t> calls(g.num_vertices(), 0);
    std::vector<std::uint64_t> state(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) state[v] = v + 1;
    const auto handler = chatty(calls, state, out.inboxes);
    if (c.one_call) {
      sync.run_rounds(c.rounds, handler);
      return;
    }
    for (std::size_t r = 0; r < c.rounds; ++r) {
      if (r == c.rounds / 2 && c.victim != graph::kInvalidVertex) {
        sync.deactivate(c.victim);
      }
      sync.run_round(handler);
    }
  });
}

void expect_same(const Outcome& want, const Outcome& got,
                 const std::string& what) {
  EXPECT_GT(want.trace.size(), 0u) << what;
  EXPECT_EQ(want.trace.size(), got.trace.size()) << what;
  const std::size_t n = std::min(want.trace.size(), got.trace.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(want.trace[i] == got.trace[i])) {
      ADD_FAILURE() << what << ": trace event " << i << " differs (kind "
                    << obs::trace_kind_name(want.trace[i].kind) << " vs "
                    << obs::trace_kind_name(got.trace[i].kind) << ", sim "
                    << want.trace[i].sim << " vs " << got.trace[i].sim << ")";
      break;
    }
  }
  EXPECT_TRUE(want.inboxes == got.inboxes) << what << ": inboxes differ";
  EXPECT_EQ(want.nodes, got.nodes) << what << ": node telemetry differs";
  EXPECT_EQ(want.messages, got.messages) << what;
  EXPECT_EQ(want.payload_words, got.payload_words) << what;
  EXPECT_EQ(want.messages_lost, got.messages_lost) << what;
  EXPECT_EQ(want.retransmissions, got.retransmissions) << what;
  EXPECT_EQ(want.rounds, got.rounds) << what;
  EXPECT_EQ(want.sim_duration, got.sim_duration) << what;
}

void check(const Graph& g, const Case& c) {
  const Outcome want =
      run_chatty<async_reference::AsyncEngine,
                 async_reference::AlphaSynchronizer>(g, c);
  const Outcome got = run_chatty<AsyncEngine, AlphaSynchronizer>(g, c);
  expect_same(want, got, describe(c));
}

Graph test_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return gen::random_connected_udg(40, 2.4, 1.0, rng).graph;
}

TEST(AsyncDiff, MatchesReferenceAcrossSeedsAndLoss) {
  const Graph g = test_network(501);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const double loss : {0.0, 0.1, 0.3}) {
      check(g, Case{.seed = seed, .loss = loss});
    }
  }
}

TEST(AsyncDiff, MatchesReferenceOnExactTies) {
  // A degenerate delay puts every delivery of a wave, and each ack and the
  // timer of its message (retransmit = round trip), on the same instant:
  // only the (time, sequence) order decides.
  const Graph g = test_network(502);
  for (const double loss : {0.0, 0.1}) {
    check(g, Case{.seed = 4,
                  .loss = loss,
                  .min_delay = 1.0,
                  .max_delay = 1.0,
                  .retransmit = 2.0});
  }
}

TEST(AsyncDiff, MatchesReferenceWithDuplicates) {
  // A retransmit interval below the round trip (>= 2 * 0.5) makes
  // retransmissions arrive as duplicates of consumed and unconsumed rounds.
  const Graph g = test_network(503);
  for (const bool one_call : {true, false}) {
    check(g, Case{.seed = 5,
                  .loss = 0.2,
                  .max_delay = 3.0,
                  .retransmit = 0.7,
                  .one_call = one_call});
  }
}

TEST(AsyncDiff, MatchesReferenceRoundAtATimeWithDeactivation) {
  const Graph g = test_network(504);
  for (const double loss : {0.0, 0.2}) {
    check(g, Case{.seed = 6,
                  .loss = loss,
                  .min_delay = 0.3,
                  .max_delay = 2.5,
                  .retransmit = 2.0,
                  .one_call = false,
                  .victim = 7});
  }
}

/// The most sends in flight at once (sent, not yet delivered, dropped or
/// lost) over a trace.
std::size_t peak_in_flight(const std::vector<TraceRecord>& trace) {
  std::size_t in_flight = 0;
  std::size_t peak = 0;
  for (const TraceRecord& e : trace) {
    switch (e.kind) {
      case obs::TraceKind::kSend:
        peak = std::max(peak, ++in_flight);
        break;
      case obs::TraceKind::kDeliver:
      case obs::TraceKind::kDrop:
      case obs::TraceKind::kLoss:
        --in_flight;
        break;
      default:
        break;
    }
  }
  return peak;
}

TEST(AsyncDiff, MatchesReferenceAtTheBenchmarksSettings) {
  // The lossy distributed benchmark's link settings on a UDG of its size
  // and density: over a thousand sends in flight at once, spread over the
  // time wheel's buckets.
  util::Rng rng(506);
  const Graph g = gen::random_connected_udg(
                      120, gen::side_for_average_degree(120, 1.0, 25.0), 1.0,
                      rng)
                      .graph;
  const Case c{.seed = 8, .loss = 0.1, .rounds = 8};
  const Outcome want = run_chatty<async_reference::AsyncEngine,
                                  async_reference::AlphaSynchronizer>(g, c);
  const Outcome got = run_chatty<AsyncEngine, AlphaSynchronizer>(g, c);
  expect_same(want, got, describe(c));
  EXPECT_GT(peak_in_flight(want.trace), 1000u);
}

TEST(AsyncDiff, MatchesReferenceAcrossAWideDelayRatio) {
  // Delays from 0.001 to 5: a delivery can fall due in the bucket being
  // drained while others wait most of a wheel revolution ahead.
  const Graph g = test_network(507);
  for (const std::uint64_t seed : {9ull, 10ull}) {
    check(g, Case{.seed = seed,
                  .loss = 0.2,
                  .min_delay = 0.001,
                  .max_delay = 5.0});
  }
}

TEST(AsyncDiff, MatchesReferenceOnKhopCollectionAndMis) {
  // The distributed executor's own protocols: k-hop collection rounds whose
  // combined messages run to hundreds of words, then a 2-hop MIS election.
  util::Rng rng(505);
  const Graph g = gen::random_connected_udg(60, 3.0, 1.0, rng).graph;
  const Case c{.seed = 7, .loss = 0.1};
  std::vector<std::vector<VertexId>> want_pools;
  std::vector<std::vector<VertexId>> got_pools;
  std::vector<bool> want_mis;
  std::vector<bool> got_mis;
  const auto protocol = [&](std::vector<std::vector<VertexId>>& pools,
                            std::vector<bool>& mis) {
    return [&](SyncRunner& sync, Outcome&) {
      for (const LocalView& view : collect_k_hop_views(sync, 3)) {
        pools.push_back(view.pool);
      }
      const std::vector<bool> everyone(g.num_vertices(), true);
      mis = elect_mis_distributed(sync, everyone, 2, 99).selected;
    };
  };
  const Outcome want = observe<async_reference::AsyncEngine,
                               async_reference::AlphaSynchronizer>(
      g, c, protocol(want_pools, want_mis));
  const Outcome got = observe<AsyncEngine, AlphaSynchronizer>(
      g, c, protocol(got_pools, got_mis));
  expect_same(want, got, "k-hop + MIS");
  EXPECT_EQ(want_pools, got_pools);
  EXPECT_EQ(want_mis, got_mis);
}

}  // namespace
}  // namespace tgc::sim
