#include "tgcover/core/edge_scheduler.hpp"

#include <algorithm>
#include <unordered_map>

#include "tgcover/core/vpt.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core {

namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

/// The nodes within `k` hops of link `e`'s endpoints over the masked
/// topology (active nodes, active links), found by one BFS seeded with both
/// endpoints.
std::vector<VertexId> link_ball(const Graph& g,
                                const std::vector<bool>& node_active,
                                const std::vector<bool>& edge_active, EdgeId e,
                                unsigned k) {
  const auto [u, v] = g.edge(e);
  std::unordered_map<VertexId, unsigned> dist{{u, 0}, {v, 0}};
  std::vector<VertexId> ball{u, v};
  for (std::size_t head = 0; head < ball.size(); ++head) {
    const VertexId a = ball[head];
    const unsigned da = dist.at(a);
    if (da == k) continue;
    const auto nbrs = g.neighbors(a);
    const auto eids = g.incident_edges(a);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (!node_active[w] || !edge_active[eids[i]]) continue;
      if (!dist.emplace(w, da + 1).second) continue;
      ball.push_back(w);
    }
  }
  return ball;
}

}  // namespace

EdgeScheduleResult dcc_schedule_edges(const Graph& g,
                                      const std::vector<bool>& node_active,
                                      const util::Gf2Vector& protected_edges,
                                      const DccConfig& config) {
  TGC_CHECK(node_active.size() == g.num_vertices());
  TGC_CHECK(protected_edges.size() == g.num_edges() ||
            protected_edges.size() == 0);
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();

  EdgeScheduleResult result;
  result.edge_active.assign(g.num_edges(), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    result.edge_active[e] = node_active[u] && node_active[v];
  }
  auto is_protected = [&](EdgeId e) {
    return protected_edges.size() != 0 && protected_edges.test(e);
  };

  enum class Verdict : char { kUnknown, kDeletable, kNotDeletable };
  std::vector<Verdict> verdict(g.num_edges(), Verdict::kUnknown);
  std::vector<bool> dirty(g.num_edges(), true);
  VptWorkspace ws;

  while (result.rounds < config.max_rounds) {
    // Candidate links: deletable per the VPT edge operator.
    std::vector<EdgeId> candidates;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!result.edge_active[e] || is_protected(e)) continue;
      if (dirty[e] || verdict[e] == Verdict::kUnknown) {
        ++result.vpt_tests;
        verdict[e] = vpt_edge_deletable(g, node_active, result.edge_active, e,
                                        vpt, ws)
                         ? Verdict::kDeletable
                         : Verdict::kNotDeletable;
        dirty[e] = false;
      }
      if (verdict[e] == Verdict::kDeletable) candidates.push_back(e);
    }
    if (candidates.empty()) break;
    ++result.rounds;

    // Greedy-by-priority MIS over links: two candidate links conflict when
    // their endpoint sets are within k hops — the same independence distance
    // as simultaneous vertex deletions. Then no selected link lies in, or
    // on a short path into, another selected link's k-hop ball, so the
    // round's deletions keep each other's verdicts.
    const std::uint64_t round_seed =
        util::splitmix64(config.seed + 0x5eed + result.rounds);
    std::sort(candidates.begin(), candidates.end(), [&](EdgeId a, EdgeId b) {
      const auto pa = sim::mis_priority(round_seed, a);
      const auto pb = sim::mis_priority(round_seed, b);
      return pa != pb ? pa > pb : a < b;
    });
    std::vector<bool> node_blocked(g.num_vertices(), false);
    std::vector<EdgeId> selected;
    for (const EdgeId e : candidates) {
      const auto [u, v] = g.edge(e);
      if (node_blocked[u] || node_blocked[v]) continue;
      selected.push_back(e);
      for (const VertexId w :
           link_ball(g, node_active, result.edge_active, e, k)) {
        node_blocked[w] = true;
      }
    }
    TGC_CHECK(!selected.empty());

    // Delete the selected links; verdicts near them go stale.
    for (const EdgeId e : selected) {
      const std::vector<VertexId> stale =
          link_ball(g, node_active, result.edge_active, e, k + 1);
      result.edge_active[e] = false;
      ++result.pruned;
      for (const VertexId w : stale) {
        for (const EdgeId ne : g.incident_edges(w)) dirty[ne] = true;
      }
    }
  }

  result.kept = static_cast<std::size_t>(std::count(
      result.edge_active.begin(), result.edge_active.end(), true));
  return result;
}

}  // namespace tgc::core
