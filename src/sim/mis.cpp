#include "tgcover/sim/mis.hpp"

#include <algorithm>
#include <unordered_set>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {

std::uint64_t mis_priority(std::uint64_t seed, graph::VertexId v) {
  return util::splitmix64(seed ^ (0xc0ffee0000000000ull | v));
}

namespace {

constexpr std::uint32_t kMsgPriority = 10;
constexpr std::uint32_t kMsgSelected = 11;

struct HeardPriority {
  graph::VertexId origin;
  std::uint64_t priority;
};

/// Floods records [origin, hi, lo] from `initial` holders for `radius` hops;
/// every node accumulates the set of origins (with priorities) it heard.
/// `msg_type` distinguishes priority floods from block-notice floods.
std::vector<std::vector<HeardPriority>> flood_records(
    SyncRunner& runner, const std::vector<std::vector<HeardPriority>>& initial,
    unsigned radius, std::uint32_t msg_type) {
  const std::size_t n = runner.graph().num_vertices();
  std::vector<std::vector<HeardPriority>> heard(n);
  std::vector<std::unordered_set<graph::VertexId>> known(n);

  for (graph::VertexId v = 0; v < n; ++v) {
    for (const HeardPriority& rec : initial[v]) {
      heard[v].push_back(rec);
      known[v].insert(rec.origin);
    }
  }

  for (unsigned round = 0; round <= radius; ++round) {
    runner.run_round([&](graph::VertexId node, std::span<const Message> inbox,
                         Mailer& mailer) {
      std::vector<HeardPriority> learned;
      for (const Message& msg : inbox) {
        if (msg.type != msg_type) continue;
        TGC_CHECK(msg.payload.size() % 3 == 0);
        for (std::size_t i = 0; i < msg.payload.size(); i += 3) {
          const graph::VertexId origin = msg.payload[i];
          if (!known[node].insert(origin).second) continue;
          const std::uint64_t prio =
              (static_cast<std::uint64_t>(msg.payload[i + 1]) << 32) |
              msg.payload[i + 2];
          heard[node].push_back(HeardPriority{origin, prio});
          learned.push_back(HeardPriority{origin, prio});
        }
      }
      const std::vector<HeardPriority>& to_send =
          round == 0 ? initial[node] : learned;
      if (round < radius && !to_send.empty()) {
        std::vector<std::uint32_t> payload;
        payload.reserve(3 * to_send.size());
        for (const HeardPriority& rec : to_send) {
          payload.push_back(rec.origin);
          payload.push_back(static_cast<std::uint32_t>(rec.priority >> 32));
          payload.push_back(static_cast<std::uint32_t>(rec.priority));
        }
        mailer.broadcast(msg_type, payload);
      }
    });
  }
  return heard;
}

}  // namespace

MisOutcome elect_mis_distributed(SyncRunner& runner,
                                 const std::vector<bool>& candidate,
                                 unsigned radius, std::uint64_t seed) {
  const std::size_t n = runner.graph().num_vertices();
  TGC_CHECK(candidate.size() == n);

  enum class State { kNone, kUnresolved, kSelected, kBlocked };
  std::vector<State> state(n, State::kNone);
  std::size_t unresolved = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (candidate[v] && runner.is_active(v)) {
      state[v] = State::kUnresolved;
      ++unresolved;
    }
  }

  MisOutcome out;
  out.selected.assign(n, false);

  while (unresolved > 0) {
    ++out.subrounds;
    // Phase A: unresolved candidates flood their priorities `radius` hops.
    std::vector<std::vector<HeardPriority>> initial(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (state[v] == State::kUnresolved) {
        initial[v].push_back(HeardPriority{v, mis_priority(seed, v)});
      }
    }
    const auto heard = flood_records(runner, initial, radius, kMsgPriority);

    // Decision: a candidate joins iff it is the strict maximum among the
    // unresolved priorities it heard (its own included). Priorities are
    // unique with overwhelming probability; ties break toward the smaller id
    // to stay deterministic.
    std::vector<std::vector<HeardPriority>> selected_notice(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (state[v] != State::kUnresolved) continue;
      const std::uint64_t mine = mis_priority(seed, v);
      bool is_max = true;
      for (const HeardPriority& rec : heard[v]) {
        if (rec.origin == v) continue;
        if (rec.priority > mine || (rec.priority == mine && rec.origin < v)) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        state[v] = State::kSelected;
        out.selected[v] = true;
        --unresolved;
        selected_notice[v].push_back(HeardPriority{v, mine});
      }
    }

    // Phase B: winners flood a block notice `radius` hops; unresolved
    // candidates hearing one are dominated and drop out.
    const auto blocked_by =
        flood_records(runner, selected_notice, radius, kMsgSelected);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (state[v] != State::kUnresolved) continue;
      bool blocked = false;
      for (const HeardPriority& rec : blocked_by[v]) {
        if (rec.origin != v) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        state[v] = State::kBlocked;
        --unresolved;
      }
    }
  }
  return out;
}

std::vector<bool> elect_mis_oracle(const graph::Graph& g,
                                   const std::vector<bool>& active,
                                   const std::vector<bool>& candidate,
                                   unsigned radius, std::uint64_t seed) {
  std::vector<std::uint64_t> priorities(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    priorities[v] = mis_priority(seed, v);
  }
  return elect_mis_oracle_with_priorities(g, active, candidate, radius,
                                          priorities);
}

std::vector<bool> elect_mis_oracle_with_priorities(
    const graph::Graph& g, const std::vector<bool>& active,
    const std::vector<bool>& candidate, unsigned radius,
    const std::vector<std::uint64_t>& priorities) {
  const std::size_t n = g.num_vertices();
  TGC_CHECK(active.size() == n && candidate.size() == n);
  TGC_CHECK(priorities.size() == n);

  std::vector<graph::VertexId> order;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (candidate[v] && active[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              return priorities[a] != priorities[b]
                         ? priorities[a] > priorities[b]
                         : a < b;
            });

  std::vector<bool> selected(n, false);
  std::vector<bool> blocked(n, false);
  graph::BoundedBfs ball;
  for (const graph::VertexId v : order) {
    if (blocked[v]) continue;
    selected[v] = true;
    // Block all candidates within `radius` hops over the active topology.
    ball.run(g, std::span(&v, 1), radius,
             [&](graph::VertexId w, graph::EdgeId) { return active[w]; });
    for (const graph::VertexId w : ball.reached()) blocked[w] = true;
  }
  return selected;
}

}  // namespace tgc::sim
