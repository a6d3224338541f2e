#include "tgcover/core/vpt.hpp"

#include <algorithm>

#include "tgcover/cycle/span.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::core {

namespace {

using graph::Graph;
using graph::VertexId;

/// BFS over the active topology from `source`, truncated at `k` hops;
/// appends the visited vertices excluding the source to `out` (unsorted,
/// BFS discovery order). `link_up(edge id)` masks links as well as nodes
/// (the edge kernel's pruned links). Uses the workspace's stamped dist
/// array and flat frontier — no per-call allocation once the buffers are
/// warm.
template <typename LinkFn>
void append_active_k_hop(const Graph& g, const std::vector<bool>& active,
                         VertexId source, unsigned k, VptWorkspace& ws,
                         std::vector<VertexId>& out, LinkFn&& link_up) {
  ws.dist.clear();
  ws.queue.clear();
  ws.dist.put(source, 0);
  ws.queue.push_back(source);
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const VertexId u = ws.queue[head];
    const std::uint32_t du = ws.dist.get(u);
    if (du == k) continue;
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (!active[w] || !link_up(eids[i]) || ws.dist.contains(w)) continue;
      ws.dist.put(w, du + 1);
      out.push_back(w);
      ws.queue.push_back(w);
    }
  }
}

constexpr auto kEveryLink = [](graph::EdgeId) { return true; };

/// Assigns punctured-local ids 0..|members|-1 in member order through the
/// workspace's stamped `local` array (replacing the per-test hash map).
void assign_local_ids(const std::vector<VertexId>& members, VptWorkspace& ws) {
  ws.local.clear();
  for (VertexId i = 0; i < members.size(); ++i) ws.local.put(members[i], i);
}

/// The two Definition-5 conditions on the workspace's punctured ball. One
/// BFS from local vertex 0, through the stamped `dist` array and the flat
/// `queue` (the member BFS is done with them), decides connectivity; a
/// connected ball's cycle space has dimension ν = |E| − |V| + 1.
bool neighbourhood_passes(unsigned tau, VptWorkspace& ws) {
  const graph::BallView& ball = ws.ball;
  const std::size_t nv = ball.num_vertices();
  if (nv == 0) return true;  // nothing local to preserve
  ws.dist.clear();
  ws.queue.clear();
  ws.dist.put(0, 0);
  ws.queue.push_back(0);
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    for (const VertexId w : ball.neighbors(ws.queue[head])) {
      if (ws.dist.contains(w)) continue;
      ws.dist.put(w, 0);
      ws.queue.push_back(w);
    }
  }
  if (ws.queue.size() != nv) return false;  // disconnected
  return cycle::short_cycles_span(ball, tau, ball.num_edges() + 1 - nv,
                                  ws.span);
}

/// Accounts one finished deletability test (any operator flavour): the test
/// itself, its verdict, the global-graph BFS frontier it expanded, and the
/// ball-view bytes it materialized. `expansions` counts only vertices
/// discovered by traversing the *global* topology — the distributed
/// local-view kernel evaluates inside a node's collected view, passes 0, and
/// its work shows up under ball-view bytes instead.
bool record_verdict(bool deletable, std::size_t expansions,
                    std::size_t ball_bytes) {
  obs::add(obs::CounterId::kVptTests, 1);
  obs::add(deletable ? obs::CounterId::kVptDeletable
                     : obs::CounterId::kVptVetoed,
           1);
  obs::add(obs::CounterId::kBfsExpansions, expansions);
  obs::add(obs::CounterId::kBallViewBytes, ball_bytes);
  return deletable;
}

}  // namespace

bool vpt_vertex_deletable(const Graph& g, const std::vector<bool>& active,
                          VertexId v, const VptConfig& config) {
  VptWorkspace ws;
  return vpt_vertex_deletable(g, active, v, config, ws);
}

bool vpt_vertex_deletable(const Graph& g, const std::vector<bool>& active,
                          VertexId v, const VptConfig& config,
                          VptWorkspace& ws) {
  TGC_CHECK(active.size() == g.num_vertices());
  TGC_CHECK_MSG(active[v], "VPT test on inactive vertex " << v);
  const unsigned k = config.effective_k();
  ws.ensure(g.num_vertices());

  ws.members.clear();
  append_active_k_hop(g, active, v, k, ws, ws.members, kEveryLink);
  std::sort(ws.members.begin(), ws.members.end());

  // Build the punctured neighbourhood directly: v is not a member, so its
  // edges never materialize, and every member is active. Rows come out
  // sorted because members are sorted and Graph adjacency is sorted, which
  // is what BallView's first-encounter edge-id assignment requires.
  assign_local_ids(ws.members, ws);
  ws.ball.build(ws.members.size(), [&](VertexId la, auto&& emit) {
    for (const VertexId b : g.neighbors(ws.members[la])) {
      if (ws.local.contains(b)) emit(ws.local.get(b));
    }
  });
  return record_verdict(neighbourhood_passes(config.tau, ws),
                        ws.members.size(), ws.ball.bytes());
}

bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config) {
  VptWorkspace ws;
  return vpt_vertex_deletable_local(view, config, ws);
}

bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config, VptWorkspace& ws) {
  // A collected view's records carry global ids below the graph order it
  // was collected at.
  TGC_CHECK(view.owner < view.order);
  const unsigned k = config.effective_k();
  ws.ensure(view.order);

  // The view's index, copied once into flat storage: the BFS and the ball
  // build below look up every id they meet.
  ws.record.clear();
  for (const auto& [node, at] : view.index) ws.record.put(node, at);

  // BFS inside the view: deletions may have lengthened paths since the view
  // was collected, so recompute which recorded nodes are still within k hops.
  // Erased nodes neither relay nor appear as members; within k hops of the
  // owner an id the view does not know is exactly an erased one (khop.hpp).
  ws.dist.clear();
  ws.queue.clear();
  ws.members.clear();
  ws.dist.put(view.owner, 0);
  ws.queue.push_back(view.owner);
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const VertexId u = ws.queue[head];
    const std::uint32_t du = ws.dist.get(u);
    if (du == k) continue;
    if (!ws.record.contains(u)) continue;
    for (const VertexId w : view.record_at(ws.record.get(u))) {
      if (ws.dist.contains(w) || !ws.record.contains(w)) continue;
      ws.dist.put(w, du + 1);
      ws.members.push_back(w);
      ws.queue.push_back(w);
    }
  }
  std::sort(ws.members.begin(), ws.members.end());

  // Build the punctured neighbourhood from the members' adjacency records.
  // Records preserve the origin's sorted adjacency order, so the filtered
  // rows are ascending as BallView requires; members are known, and an
  // erased id is never a member.
  assign_local_ids(ws.members, ws);
  ws.ball.build(ws.members.size(), [&](VertexId lu, auto&& emit) {
    for (const VertexId w : view.record_at(ws.record.get(ws.members[lu]))) {
      if (ws.local.contains(w)) emit(ws.local.get(w));
    }
  });
  // No global-graph traversal happened: the BFS ran over the view's arena
  // records (the collection protocol's cost is accounted as messages).
  return record_verdict(neighbourhood_passes(config.tau, ws), 0,
                        ws.members.size() * sizeof(VertexId) +
                            ws.ball.bytes());
}

bool vpt_edge_deletable(const Graph& g, const std::vector<bool>& active,
                        const std::vector<bool>& edge_active, graph::EdgeId e,
                        const VptConfig& config) {
  VptWorkspace ws;
  return vpt_edge_deletable(g, active, edge_active, e, config, ws);
}

bool vpt_edge_deletable(const Graph& g, const std::vector<bool>& active,
                        const std::vector<bool>& edge_active, graph::EdgeId e,
                        const VptConfig& config, VptWorkspace& ws) {
  TGC_CHECK(active.size() == g.num_vertices());
  TGC_CHECK(edge_active.size() == g.num_edges());
  const auto [u, v] = g.edge(e);
  TGC_CHECK(active[u] && active[v] && edge_active[e]);
  const unsigned k = config.effective_k();
  ws.ensure(g.num_vertices());
  const auto link_up = [&](graph::EdgeId l) { return edge_active[l]; };

  ws.members.clear();
  append_active_k_hop(g, active, u, k, ws, ws.members, link_up);
  ws.members.push_back(u);  // the edge's endpoints stay; only the link goes
  append_active_k_hop(g, active, v, k, ws, ws.members, link_up);
  ws.members.push_back(v);
  std::sort(ws.members.begin(), ws.members.end());
  ws.members.erase(std::unique(ws.members.begin(), ws.members.end()),
                   ws.members.end());

  assign_local_ids(ws.members, ws);
  ws.ball.build(ws.members.size(), [&](VertexId la, auto&& emit) {
    const auto nbrs = g.neighbors(ws.members[la]);
    const auto eids = g.incident_edges(ws.members[la]);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId b = nbrs[i];
      if (eids[i] == e) continue;  // puncture
      if (edge_active[eids[i]] && ws.local.contains(b)) emit(ws.local.get(b));
    }
  });
  return record_verdict(neighbourhood_passes(config.tau, ws),
                        ws.members.size(), ws.ball.bytes());
}

}  // namespace tgc::core
