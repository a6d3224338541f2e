#include "tgcover/sim/mis.hpp"

#include <algorithm>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/sim/flood.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::sim {

std::uint64_t mis_priority(std::uint64_t seed, graph::VertexId v) {
  return util::splitmix64(seed ^ (0xc0ffee0000000000ull | v));
}

namespace {

constexpr std::uint32_t kMsgPriority = 10;
constexpr std::uint32_t kMsgSelected = 11;

/// Priority and block-notice records: [origin, priority hi, priority lo].
std::size_t priority_size(std::span<const std::uint32_t> /*rest*/) {
  return 3;
}

/// The priority carried by the record at word `at` of `records`.
std::uint64_t priority_at(const std::vector<std::uint32_t>& records,
                          std::size_t at) {
  return (std::uint64_t{records[at + 1]} << 32) | records[at + 2];
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
  std::vector<std::vector<std::uint32_t>> held(n);

  while (unresolved > 0) {
    ++out.subrounds;
    // Phase A: unresolved candidates flood their priorities `radius` hops.
    for (graph::VertexId v = 0; v < n; ++v) {
      held[v].clear();
      if (state[v] == State::kUnresolved) {
        const std::uint64_t priority = mis_priority(seed, v);
        held[v] = {v, static_cast<std::uint32_t>(priority >> 32),
                   static_cast<std::uint32_t>(priority)};
      }
    }
    flood(runner, held, radius, kMsgPriority, priority_size);

    // Decision: a candidate joins iff it is the strict maximum among the
    // unresolved priorities it heard (its own record comes first). Priorities
    // are unique with overwhelming probability; ties break toward the smaller
    // id to stay deterministic. A winner keeps its own record: that is its
    // block notice.
    for (graph::VertexId v = 0; v < n; ++v) {
      bool wins = state[v] == State::kUnresolved;
      for (std::size_t at = 3; wins && at < held[v].size(); at += 3) {
        const std::uint64_t mine = priority_at(held[v], 0);
        const std::uint64_t theirs = priority_at(held[v], at);
        wins = theirs < mine || (theirs == mine && held[v][at] > v);
      }
      held[v].resize(wins ? 3 : 0);
      if (wins) {
        state[v] = State::kSelected;
        out.selected[v] = true;
        --unresolved;
      }
    }

    // Phase B: winners flood a block notice `radius` hops; unresolved
    // candidates hearing one are dominated and drop out.
    flood(runner, held, radius, kMsgSelected, priority_size);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (state[v] == State::kUnresolved && !held[v].empty()) {
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
