// Asynchronous engine + α-synchronizer: the synchronous round abstraction
// the paper's protocol uses, recovered over an event-driven network with
// random link delays — validated by running identical handlers on both
// substrates and comparing final protocol states.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/sim/async.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;
using Delivery = AsyncEngine::Delivery;

/// Sends `payload` to the i-th neighbour of `from`, over link
/// `first_link(from) + i`.
void send_words(AsyncEngine& engine, VertexId from, std::uint32_t i,
                std::uint32_t type,
                std::initializer_list<std::uint32_t> payload) {
  const std::uint32_t buffer = engine.acquire();
  engine.words(buffer).assign(payload);
  engine.send_link(engine.first_link(from) + i, type, buffer);
}

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

// ------------------------------------------------------------ AsyncEngine

TEST(AsyncEngine, DeliversWithDelayInRange) {
  const Graph g = path_graph(2);
  AsyncEngine::Options opt;
  opt.min_delay = 1.0;
  opt.max_delay = 2.0;
  AsyncEngine engine(g, opt);
  send_words(engine, 0, 0, 9, {5});
  double delivered_at = -1.0;
  engine.run([&](double now, const Delivery& msg) {
    EXPECT_EQ(msg.from, 0u);
    EXPECT_EQ(msg.type, 9u);
    delivered_at = now;
  });
  EXPECT_GE(delivered_at, 1.0);
  EXPECT_LE(delivered_at, 2.0);
  EXPECT_EQ(engine.stats().messages, 1u);
}

TEST(AsyncEngine, InactiveReceiverDropsMessage) {
  const Graph g = path_graph(2);
  AsyncEngine engine(g, {});
  engine.deactivate(1);
  send_words(engine, 0, 0, 1, {1, 2});
  std::size_t deliveries = 0;
  engine.run([&](double, const Delivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(engine.stats().messages, 1u);  // transmission still counted
}

TEST(AsyncEngine, CascadedSendsAdvanceTime) {
  // A relay chain: each delivery triggers the next hop; time accumulates.
  const Graph g = path_graph(4);
  AsyncEngine engine(g, {});
  send_words(engine, 0, 0, 1, {});
  const double finish = engine.run([&](double, const Delivery& msg) {
    if (msg.to + 1 < 4) {
      send_words(engine, msg.to, 1, 1, {});  // an inner node's link 1: v + 1
    }
  });
  EXPECT_GE(finish, 3 * 0.5);  // three hops, min delay each
}

// ------------------------------------------------------ AlphaSynchronizer

/// Reference protocol 1 — BFS layering: a root floods a token; each node
/// records the first round it hears it. Under a correct synchronizer the
/// recorded round equals the BFS hop distance.
void bfs_protocol(std::vector<std::uint32_t>& level, VertexId root,
                  unsigned rounds_hint, const Graph& g,
                  const std::function<void(std::size_t,
                                           const RoundEngine::Handler&)>& run) {
  level.assign(g.num_vertices(), graph::kUnreached);
  level[root] = 0;
  std::vector<bool> announced(g.num_vertices(), false);
  run(rounds_hint, [&](VertexId node, std::span<const Message> inbox,
                       Broadcast& out) {
    for (const Message& m : inbox) {
      if (m.type == 1 && level[node] == graph::kUnreached) {
        level[node] = m.payload[0];
      }
    }
    // A node announces its level exactly once, in the round it learned it
    // (the root announces in round 0).
    if (level[node] != graph::kUnreached && !announced[node]) {
      announced[node] = true;
      out.send(1, std::array{level[node] + 1});
    }
  });
}

TEST(AlphaSynchronizer, BfsLayersMatchHopDistances) {
  util::Rng rng(401);
  const auto dep = gen::random_connected_udg(60, 2.6, 1.0, rng);
  const Graph& g = dep.graph;
  const auto truth = graph::bfs_distances(g, 0);
  const unsigned rounds =
      *std::max_element(truth.begin(), truth.end()) + 2;

  std::vector<std::uint32_t> level;
  AsyncEngine engine(g, {.min_delay = 0.2, .max_delay = 3.7, .seed = 99});
  AlphaSynchronizer sync(engine);
  bfs_protocol(level, 0, rounds, g,
               [&](std::size_t r, const RoundEngine::Handler& h) {
                 sync.run_rounds(r, h);
               });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(level[v], truth[v]) << "node " << v;
  }
}

/// Reference protocol 2 — max aggregation: every node repeatedly broadcasts
/// the largest value it has seen; after diameter rounds all nodes agree.
RoundEngine::Handler max_aggregation(std::vector<std::uint32_t>& value) {
  return [&value](VertexId node, std::span<const Message> inbox,
                  Broadcast& out) {
    for (const Message& m : inbox) {
      value[node] = std::max(value[node], m.payload[0]);
    }
    out.send(2, std::array{value[node]});
  };
}

TEST(AlphaSynchronizer, MatchesRoundEngineExactly) {
  util::Rng rng(402);
  const auto dep = gen::random_connected_udg(50, 2.4, 1.0, rng);
  const Graph& g = dep.graph;
  const std::size_t rounds = 12;

  // Seed values: pseudorandom per node.
  auto seed_values = [&] {
    std::vector<std::uint32_t> v(g.num_vertices());
    for (VertexId i = 0; i < g.num_vertices(); ++i) {
      v[i] = static_cast<std::uint32_t>(util::splitmix64(7777 + i) >> 40);
    }
    return v;
  };

  auto sync_values = seed_values();
  {
    RoundEngine engine(g);
    const auto handler = max_aggregation(sync_values);
    for (std::size_t r = 0; r < rounds; ++r) engine.run_round(handler);
  }

  auto async_values = seed_values();
  {
    AsyncEngine engine(g, {.min_delay = 0.1, .max_delay = 5.0,
                           .seed = 31337});  // heavy jitter
    AlphaSynchronizer sync(engine);
    sync.run_rounds(rounds, max_aggregation(async_values));
    EXPECT_EQ(sync.stats().rounds, rounds);
  }

  EXPECT_EQ(async_values, sync_values);
  const auto want =
      *std::max_element(sync_values.begin(), sync_values.end());
  for (const auto v : sync_values) EXPECT_EQ(v, want);
}

TEST(AlphaSynchronizer, DeactivatedNodesAreExcluded) {
  const Graph g = path_graph(5);
  AsyncEngine engine(g, {});
  engine.deactivate(2);  // splits the path

  std::vector<std::uint32_t> value(5, 0);
  value[0] = 100;
  value[4] = 50;
  AlphaSynchronizer sync(engine);
  sync.run_rounds(6, max_aggregation(value));
  EXPECT_EQ(value[1], 100u);  // left side converged
  EXPECT_EQ(value[3], 50u);   // right side cannot hear 100 through node 2
  EXPECT_EQ(value[2], 0u);    // sleeping node untouched
}

TEST(AlphaSynchronizer, IsolatedNodesComplete) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // node 2 isolated
  const Graph g = b.build();
  AsyncEngine engine(g, {});
  AlphaSynchronizer sync(engine);
  std::vector<int> calls(3, 0);
  sync.run_rounds(4, [&](VertexId node, std::span<const Message>,
                         Broadcast&) { ++calls[node]; });
  EXPECT_EQ(calls[0], 4);
  EXPECT_EQ(calls[1], 4);
  EXPECT_EQ(calls[2], 4);
}

TEST(AlphaSynchronizer, DelayDistributionDoesNotChangeOutcome) {
  util::Rng rng(403);
  const auto dep = gen::random_connected_udg(40, 2.2, 1.0, rng);
  const Graph& g = dep.graph;

  std::vector<std::vector<std::uint32_t>> results;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    std::vector<std::uint32_t> value(g.num_vertices());
    for (VertexId i = 0; i < g.num_vertices(); ++i) {
      value[i] = static_cast<std::uint32_t>(util::splitmix64(i) & 0xffff);
    }
    AsyncEngine engine(g,
                       {.min_delay = 0.01, .max_delay = 10.0, .seed = seed});
    AlphaSynchronizer sync(engine);
    sync.run_rounds(10, max_aggregation(value));
    results.push_back(std::move(value));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

// ------------------------------------------------------- lossy links

TEST(AlphaSynchronizer, SurvivesHeavyMessageLoss) {
  // 35% of transmissions vanish; acks + retransmission must still deliver
  // the exact synchronous execution.
  util::Rng rng(404);
  const auto dep = gen::random_connected_udg(40, 2.2, 1.0, rng);
  const Graph& g = dep.graph;
  const std::size_t rounds = 8;

  auto seed_values = [&] {
    std::vector<std::uint32_t> v(g.num_vertices());
    for (VertexId i = 0; i < g.num_vertices(); ++i) {
      v[i] = static_cast<std::uint32_t>(util::splitmix64(31 + i) >> 40);
    }
    return v;
  };

  auto sync_values = seed_values();
  {
    RoundEngine engine(g);
    const auto handler = max_aggregation(sync_values);
    for (std::size_t r = 0; r < rounds; ++r) engine.run_round(handler);
  }

  auto lossy_values = seed_values();
  AsyncEngine engine(g, {.min_delay = 0.2,
                         .max_delay = 1.0,
                         .loss_probability = 0.35,
                         .seed = 7});
  AlphaSynchronizer sync(engine, /*retransmit_interval=*/2.0);
  sync.run_rounds(rounds, max_aggregation(lossy_values));

  EXPECT_EQ(lossy_values, sync_values);
  EXPECT_GT(engine.messages_lost(), 0u);
  EXPECT_GT(sync.retransmissions(), 0u);
}

TEST(AlphaSynchronizer, NoRetransmissionsOnCleanLinks) {
  util::Rng rng(405);
  const auto dep = gen::random_connected_udg(30, 2.0, 1.0, rng);
  std::vector<std::uint32_t> value(dep.graph.num_vertices(), 1);
  AsyncEngine engine(dep.graph, {.min_delay = 0.2, .max_delay = 0.9,
                                 .seed = 3});
  AlphaSynchronizer sync(engine, /*retransmit_interval=*/100.0);
  sync.run_rounds(5, max_aggregation(value));
  EXPECT_EQ(sync.retransmissions(), 0u);
  EXPECT_EQ(engine.messages_lost(), 0u);
}

TEST(AsyncEngine, TimersFireInOrder) {
  const Graph g = path_graph(2);
  AsyncEngine engine(g, {});
  std::vector<std::uint64_t> order;
  engine.schedule(3.0, 3);
  engine.schedule(1.0, 1);
  engine.run([](double, const Delivery&) {},
             [&](std::uint64_t tag) {
               order.push_back(tag);
               if (tag == 1) engine.schedule(1.0, 2);
             });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(AsyncEngine, EqualTimeEventsFireInPushOrder) {
  // With a degenerate delay distribution a delivery and a timer land on the
  // exact same instant; the tie must break by scheduling order (the event
  // sequence number), not by event flavour — both orderings.
  const Graph g = path_graph(2);
  {
    AsyncEngine engine(g, {.min_delay = 1.0, .max_delay = 1.0});
    std::vector<std::uint64_t> order;
    send_words(engine, 0, 0, 1, {});  // delivered at exactly t = 1.0
    engine.schedule(1.0, 2);
    engine.run(
        [&](double now, const Delivery&) {
          EXPECT_DOUBLE_EQ(now, 1.0);
          order.push_back(1);
        },
        [&](std::uint64_t tag) { order.push_back(tag); });
    // message was pushed first
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  }
  {
    AsyncEngine engine(g, {.min_delay = 1.0, .max_delay = 1.0});
    std::vector<std::uint64_t> order;
    engine.schedule(1.0, 1);
    send_words(engine, 0, 0, 1, {});
    engine.run([&](double, const Delivery&) { order.push_back(2); },
               [&](std::uint64_t tag) { order.push_back(tag); });
    // timer was pushed first
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  }
}

TEST(AsyncEngine, ManyTimersAndDeliveriesPopInTimeThenPushOrder) {
  // ~100k events in one run(), a third of them timers, a few hundred
  // pending at once. A timer due no earlier than every pending one goes to
  // the timer lane; the rest go to the heap. The lane holds over a hundred
  // timers at its peak and turns over more than twenty times, so its deque
  // grows, allocates and frees blocks and re-centres its block map many
  // times. Each event carries its push index (payload word or tag): the
  // pops must come in strict (time, push index) order and cover every
  // index once, with link delays that tie exactly and with ones that do
  // not.
  GraphBuilder b(8);
  for (VertexId v = 0; v < 8; ++v) b.add_edge(v, (v + 1) % 8);
  const Graph g = b.build();
  constexpr std::uint32_t kEvents = 100000;
  constexpr std::array<double, 3> kTimerDelays{0.5, 1.0, 4.0};
  for (const auto& [lo, hi] : {std::pair{1.0, 1.0}, std::pair{0.5, 1.5}}) {
    SCOPED_TRACE(testing::Message() << "delays [" << lo << ", " << hi << "]");
    AsyncEngine engine(g, {.min_delay = lo, .max_delay = hi, .seed = 5});
    util::Rng rng(77);
    std::vector<VertexId> at;   // push index -> node the event reaches
    std::vector<char> laned;    // push index -> a timer the lane takes
    std::size_t live = 0;
    std::size_t pending = 0;    // timers armed, not fired
    double tail = 0.0;          // latest due time of a pending timer
    std::size_t in_lane = 0;
    std::size_t peak_lane = 0;
    std::size_t lane_timers = 0;
    std::size_t heap_timers = 0;
    const auto push_from = [&](VertexId v) {
      const auto id = static_cast<std::uint32_t>(at.size());
      ++live;
      if (rng.next_below(3) != 0) {
        const auto i = static_cast<std::uint32_t>(rng.next_below(2));
        at.push_back(g.neighbors(v)[i]);
        laned.push_back(0);
        send_words(engine, v, i, 1, {id});
        return;
      }
      const double delay = kTimerDelays[rng.next_below(kTimerDelays.size())];
      const double due = engine.now() + delay;
      const bool lane = pending == 0 || due >= tail;
      if (lane) {
        tail = due;
        peak_lane = std::max(peak_lane, ++in_lane);
        ++lane_timers;
      } else {
        ++heap_timers;
      }
      ++pending;
      at.push_back(v);
      laned.push_back(lane);
      engine.schedule(delay, id);
    };
    for (VertexId v = 0; v < 8; ++v) push_from(v);

    std::vector<std::pair<double, std::uint32_t>> popped;
    const auto on_pop = [&](std::uint32_t id) {
      popped.emplace_back(engine.now(), id);
      --live;
      // Two children below a few hundred live events, else zero or one.
      std::size_t children = live < 300 ? 2 : rng.next_below(2);
      while (children-- > 0 && at.size() < kEvents) push_from(at[id]);
    };
    engine.run([&](double, const Delivery& msg) { on_pop(msg.payload[0]); },
               [&](std::uint64_t tag) {
                 --pending;
                 if (laned[tag]) --in_lane;
                 on_pop(static_cast<std::uint32_t>(tag));
               });

    ASSERT_EQ(at.size(), kEvents);
    ASSERT_EQ(popped.size(), kEvents);
    std::vector<bool> seen(kEvents, false);
    std::size_t ties = 0;
    for (std::size_t i = 0; i < popped.size(); ++i) {
      const std::uint32_t id = popped[i].second;
      ASSERT_FALSE(seen[id]) << "event " << id << " popped twice";
      seen[id] = true;
      if (i == 0) continue;
      ASSERT_LT(popped[i - 1], popped[i]) << "pop " << i;
      if (popped[i - 1].first == popped[i].first) ++ties;
    }
    EXPECT_GT(peak_lane, 100u);
    EXPECT_GT(lane_timers, 20 * peak_lane);
    EXPECT_GT(heap_timers, 5000u);
    if (lo == hi) {
      EXPECT_GT(ties, 50000u);
    }
  }
}

TEST(AlphaSynchronizer, LossAndRetransmitCountersReachRegistry) {
  // messages_lost / retransmissions must show up as first-class registry
  // counters, equal to the engine's own accounting.
  util::Rng rng(406);
  const auto dep = gen::random_connected_udg(30, 2.2, 1.0, rng);
  std::vector<std::uint32_t> value(dep.graph.num_vertices(), 1);
  value[0] = 9000;

  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  AsyncEngine engine(dep.graph, {.min_delay = 0.2,
                                 .max_delay = 1.0,
                                 .loss_probability = 0.3,
                                 .seed = 11});
  AlphaSynchronizer sync(engine, /*retransmit_interval=*/2.0);
  sync.run_rounds(6, max_aggregation(value));
  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);

  EXPECT_GT(engine.messages_lost(), 0u);
  EXPECT_GT(sync.retransmissions(), 0u);
  EXPECT_EQ(delta.get(obs::CounterId::kMessagesLost),
            engine.messages_lost());
  EXPECT_EQ(delta.get(obs::CounterId::kRetransmissions),
            sync.retransmissions());
}

TEST(AlphaSynchronizer, IncrementalRoundsWithMidProtocolDeactivation) {
  // The scheduler drives the synchronizer one round at a time and powers
  // nodes down between calls. Ten run_rounds(1) calls with a deactivation at
  // the midpoint must reproduce the RoundEngine execution exactly — even
  // over lossy links, and even though the victim's last broadcast is still
  // in flight at the boundary (both substrates deliver it).
  util::Rng rng(407);
  const auto dep = gen::random_connected_udg(40, 2.4, 1.0, rng);
  const Graph& g = dep.graph;
  const std::size_t rounds = 10;
  const VertexId victim = 7;

  auto seed_values = [&] {
    std::vector<std::uint32_t> v(g.num_vertices());
    for (VertexId i = 0; i < g.num_vertices(); ++i) {
      v[i] = static_cast<std::uint32_t>(util::splitmix64(123 + i) >> 40);
    }
    return v;
  };

  auto sync_values = seed_values();
  {
    RoundEngine engine(g);
    const auto handler = max_aggregation(sync_values);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (r == rounds / 2) engine.deactivate(victim);
      engine.run_round(handler);
    }
  }

  auto async_values = seed_values();
  {
    AsyncEngine engine(g, {.min_delay = 0.3,
                           .max_delay = 2.5,
                           .loss_probability = 0.2,
                           .seed = 55});
    AlphaSynchronizer sync(engine, /*retransmit_interval=*/2.0);
    const auto handler = max_aggregation(async_values);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (r == rounds / 2) sync.deactivate(victim);
      sync.run_round(handler);
    }
    EXPECT_EQ(sync.stats().rounds, rounds);
  }

  EXPECT_EQ(async_values, sync_values);
}

/// Reference protocol 3 — tallying: every delivered message adds its value
/// to the receiver's tally, and each node broadcasts a value derived from
/// its tally. Unlike `max`, a sum sees a duplicated or missing message.
RoundEngine::Handler tally_protocol(std::vector<std::uint64_t>& tally) {
  return [&tally](VertexId node, std::span<const Message> inbox,
                  Broadcast& out) {
    for (const Message& m : inbox) tally[node] += m.payload[0];
    out.send(3, std::array{static_cast<std::uint32_t>(tally[node] % 997 +
                                                      node + 1)});
  };
}

TEST(AlphaSynchronizer, CountingHandlerSeesEachMessageOnce) {
  // A retransmit interval below the round trip (>= 2 * 0.5) makes
  // retransmissions arrive as duplicates; the synchronizer must drop each
  // one whether the ten rounds run as one call or as ten.
  util::Rng rng(408);
  const auto dep = gen::random_connected_udg(40, 2.4, 1.0, rng);
  const Graph& g = dep.graph;
  const std::size_t rounds = 10;

  std::vector<std::uint64_t> want(g.num_vertices(), 0);
  {
    RoundEngine engine(g);
    const auto handler = tally_protocol(want);
    for (std::size_t r = 0; r < rounds; ++r) engine.run_round(handler);
  }

  for (const bool one_call : {true, false}) {
    std::vector<std::uint64_t> tally(g.num_vertices(), 0);
    AsyncEngine engine(g, {.min_delay = 0.5,
                           .max_delay = 3.0,
                           .loss_probability = 0.2,
                           .seed = 21});
    AlphaSynchronizer sync(engine, /*retransmit_interval=*/0.7);
    const auto handler = tally_protocol(tally);
    if (one_call) {
      sync.run_rounds(rounds, handler);
    } else {
      for (std::size_t r = 0; r < rounds; ++r) sync.run_round(handler);
    }
    EXPECT_EQ(tally, want) << (one_call ? "one call" : "ten calls");
    EXPECT_EQ(sync.stats().rounds, rounds);
    EXPECT_GT(sync.retransmissions(), 0u);
  }
}

// ------------------------------------------------------------ inbox views

/// One message as a handler saw it.
struct Heard {
  VertexId node;
  std::size_t round;
  VertexId from;
  std::uint32_t type;
  std::vector<std::uint32_t> payload;
  auto operator<=>(const Heard&) const = default;
};

/// Reference protocol 4 — varying lengths: each node records every message
/// it hears, folds them into a hash (order-free, since inbox order differs
/// between substrates) and broadcasts 0–90 words, with a type, length and
/// content that change every round, or stays silent. A view read after its
/// words were overwritten or released changes the record and, through the
/// hash, every later payload.
RoundEngine::Handler varying_lengths(std::vector<std::size_t>& calls,
                                     std::vector<std::uint64_t>& state,
                                     std::vector<Heard>& heard) {
  return [&calls, &state, &heard](VertexId node,
                                  std::span<const Message> inbox,
                                  Broadcast& out) {
    const std::size_t round = calls[node]++;
    std::uint64_t h = state[node];
    for (const Message& m : inbox) {
      heard.push_back(Heard{node, round, m.from, m.type,
                            {m.payload.begin(), m.payload.end()}});
      std::uint64_t mh = util::splitmix64(m.from * 131 + m.type);
      for (const std::uint32_t w : m.payload) mh = util::splitmix64(mh + w);
      h += mh;
    }
    h = util::splitmix64(h);
    state[node] = h;
    if (h % 7 == 0) return;
    std::vector<std::uint32_t> words((h >> 8) % 91);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = static_cast<std::uint32_t>(h >> (i % 32)) + node;
    }
    out.send(4 + static_cast<std::uint32_t>(round % 3), words);
  };
}

TEST(AlphaSynchronizer, InboxViewsMatchRoundEngineAtEveryLength) {
  util::Rng rng(409);
  const auto dep = gen::random_connected_udg(40, 2.4, 1.0, rng);
  const Graph& g = dep.graph;
  const std::size_t rounds = 12;
  const auto record = [&](const auto& drive) {
    std::vector<std::size_t> calls(g.num_vertices(), 0);
    std::vector<std::uint64_t> state(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) state[v] = v + 1;
    std::vector<Heard> heard;
    drive(varying_lengths(calls, state, heard));
    std::sort(heard.begin(), heard.end());
    return heard;
  };

  const std::vector<Heard> want = record([&](const RoundEngine::Handler& h) {
    RoundEngine engine(g);
    for (std::size_t r = 0; r < rounds; ++r) engine.run_round(h);
  });
  // The lengths cover empty payloads and combined messages past the pool's
  // 64-word cut.
  const auto empty = std::count_if(want.begin(), want.end(), [](const Heard& x) {
    return x.payload.empty();
  });
  const auto long_ones = std::count_if(
      want.begin(), want.end(),
      [](const Heard& x) { return x.payload.size() > 64; });
  EXPECT_GT(empty, 0);
  EXPECT_GT(long_ones, 0);

  for (const double loss : {0.0, 0.2}) {
    for (const bool one_call : {true, false}) {
      const std::vector<Heard> got =
          record([&](const RoundEngine::Handler& h) {
            AsyncEngine engine(g, {.min_delay = 0.3,
                                   .max_delay = 2.5,
                                   .loss_probability = loss,
                                   .seed = 29});
            AlphaSynchronizer sync(engine, /*retransmit_interval=*/2.0);
            if (one_call) {
              sync.run_rounds(rounds, h);
            } else {
              for (std::size_t r = 0; r < rounds; ++r) sync.run_round(h);
            }
          });
      EXPECT_TRUE(got == want)
          << "loss " << loss << (one_call ? " one call" : " round at a time");
    }
  }
}

TEST(Broadcast, SecondSendInOneRoundThrowsOnBothSubstrates) {
  const Graph g = path_graph(3);
  const RoundEngine::Handler twice = [](VertexId, std::span<const Message>,
                                        Broadcast& out) {
    out.send(1, std::array{1u});
    out.send(1, std::array{2u});
  };
  RoundEngine engine(g);
  EXPECT_THROW(engine.run_round(twice), tgc::CheckError);
  AsyncEngine async(g, {});
  AlphaSynchronizer sync(async);
  EXPECT_THROW(sync.run_rounds(1, twice), tgc::CheckError);
}

TEST(AsyncEngine, LossIsCounted) {
  const Graph g = path_graph(2);
  AsyncEngine engine(g, {.min_delay = 0.1, .max_delay = 0.2,
                         .loss_probability = 0.5, .seed = 17});
  for (int i = 0; i < 200; ++i) send_words(engine, 0, 0, 1, {});
  std::size_t delivered = 0;
  engine.run([&](double, const Delivery&) { ++delivered; });
  EXPECT_EQ(delivered + engine.messages_lost(), 200u);
  EXPECT_NEAR(static_cast<double>(engine.messages_lost()), 100.0, 30.0);
}

}  // namespace
}  // namespace tgc::sim
