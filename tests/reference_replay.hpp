// Test-only reference executors for the DCC deletion fixpoints.
//
// Brute-force replays that re-test every awake internal node (or every
// active link) every round with the plain VPT kernels and elect the same MIS
// as the schedulers. They share no code with the schedulers' round loops,
// verdict caches or dirty frontiers, so a scheduler that matches a replay
// reused no verdict it should have re-tested. The vertex replay also counts
// the tests a cache with the exact k-hop deletion frontier would run, so a
// scheduler that re-tests more than that is caught too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core::reference {

struct Replay {
  std::vector<bool> active;
  std::size_t rounds = 0;
  std::size_t deleted = 0;
  std::size_t vpt_tests = 0;  ///< every awake internal node, every round
  /// The awake internal nodes that are untested or lie within k hops of the
  /// previous round's deletions over the pre-deletion topology, summed over
  /// rounds: what an exact-frontier verdict cache tests.
  std::size_t frontier_tests = 0;
  std::vector<DccRoundInfo> per_round;
};

struct IgnoreVerdict {
  void operator()(graph::VertexId, bool) const {}
};

/// The oracle fixpoint from the awake set `active` (seeded MIS priorities
/// only): each round re-tests every awake internal node with
/// `vpt_vertex_deletable`, elects `sim::elect_mis_oracle` with
/// `splitmix64(seed + round)` among the deletable ones and deletes the
/// winners. `on_verdict(v, deletable)` sees every verdict.
template <typename OnVerdict = IgnoreVerdict>
Replay replay_dcc_from(const graph::Graph& g, const std::vector<bool>& internal,
                       std::vector<bool> active, const DccConfig& config,
                       OnVerdict on_verdict = {}) {
  const VptConfig vpt = config.vpt();
  const std::uint32_t k = vpt.effective_k();
  const std::size_t n = g.num_vertices();
  VptWorkspace ws;
  Replay out;
  std::vector<bool> stale(n, true);
  while (true) {
    std::vector<bool> candidate(g.num_vertices(), false);
    std::size_t num_candidates = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!active[v] || !internal[v]) continue;
      const bool deletable = vpt_vertex_deletable(g, active, v, vpt, ws);
      ++out.vpt_tests;
      if (stale[v]) ++out.frontier_tests;
      on_verdict(v, deletable);
      if (deletable) {
        candidate[v] = true;
        ++num_candidates;
      }
    }
    if (num_candidates == 0) break;
    ++out.rounds;
    const std::vector<bool> selected =
        sim::elect_mis_oracle(g, active, candidate, vpt.mis_radius(),
                              util::splitmix64(config.seed + out.rounds));
    // Hop distances from the deleted set over the pre-deletion topology.
    std::vector<std::uint32_t> dist(n, graph::kUnreached);
    std::vector<graph::VertexId> queue;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (selected[v]) {
        dist[v] = 0;
        queue.push_back(v);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::VertexId u = queue[head];
      if (dist[u] == k) continue;
      for (const graph::VertexId w : g.neighbors(u)) {
        if (active[w] && dist[w] == graph::kUnreached) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      }
    }
    for (graph::VertexId v = 0; v < n; ++v) {
      stale[v] = dist[v] != graph::kUnreached;
    }
    std::size_t num_selected = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!selected[v]) continue;
      active[v] = false;
      ++num_selected;
    }
    out.deleted += num_selected;
    out.per_round.push_back(DccRoundInfo{num_candidates, num_selected});
  }
  out.active = std::move(active);
  return out;
}

/// `replay_dcc_from` with every node awake.
inline Replay replay_dcc(const graph::Graph& g,
                         const std::vector<bool>& internal,
                         const DccConfig& config) {
  return replay_dcc_from(g, internal,
                         std::vector<bool>(g.num_vertices(), true), config);
}

/// The link-pruning fixpoint of `dcc_schedule_edges`. Each round re-tests
/// every active, unprotected link with `vpt_edge_deletable`, orders the
/// deletable links by `sim::mis_priority(splitmix64(seed + 0x5eed + round))`
/// (higher first, ties by id), keeps each link whose endpoints lie more
/// than k hops from every endpoint of a link kept before it, and deletes
/// the kept links. Returns the surviving links.
inline std::vector<bool> replay_edges(const graph::Graph& g,
                                      const std::vector<bool>& node_active,
                                      const util::Gf2Vector& protected_edges,
                                      const DccConfig& config) {
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();
  std::vector<bool> link(g.num_edges(), false);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    link[e] = node_active[u] && node_active[v];
  }
  // Hop distances from {u, v} over the current masked topology.
  const auto distances = [&](graph::VertexId u, graph::VertexId v) {
    std::vector<std::uint32_t> dist(g.num_vertices(), graph::kUnreached);
    std::vector<graph::VertexId> queue{u, v};
    dist[u] = dist[v] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::VertexId a = queue[head];
      const auto nbrs = g.neighbors(a);
      const auto eids = g.incident_edges(a);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::VertexId b = nbrs[i];
        if (!node_active[b] || !link[eids[i]]) continue;
        if (dist[b] != graph::kUnreached) continue;
        dist[b] = dist[a] + 1;
        queue.push_back(b);
      }
    }
    return dist;
  };

  VptWorkspace ws;
  for (std::size_t round = 1;; ++round) {
    std::vector<graph::EdgeId> candidates;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!link[e]) continue;
      if (protected_edges.size() != 0 && protected_edges.test(e)) continue;
      if (vpt_edge_deletable(g, node_active, link, e, vpt, ws)) {
        candidates.push_back(e);
      }
    }
    if (candidates.empty()) return link;
    const std::uint64_t seed = util::splitmix64(config.seed + 0x5eed + round);
    std::sort(candidates.begin(), candidates.end(),
              [&](graph::EdgeId a, graph::EdgeId b) {
                const auto pa = sim::mis_priority(seed, a);
                const auto pb = sim::mis_priority(seed, b);
                return pa != pb ? pa > pb : a < b;
              });
    std::vector<bool> blocked(g.num_vertices(), false);
    std::vector<graph::EdgeId> kept;
    for (const graph::EdgeId e : candidates) {
      const auto [u, v] = g.edge(e);
      if (blocked[u] || blocked[v]) continue;
      kept.push_back(e);
      const std::vector<std::uint32_t> dist = distances(u, v);
      for (graph::VertexId w = 0; w < g.num_vertices(); ++w) {
        if (dist[w] <= k) blocked[w] = true;
      }
    }
    for (const graph::EdgeId e : kept) link[e] = false;
  }
}

}  // namespace tgc::core::reference
