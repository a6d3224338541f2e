#include "tgcover/graph/subgraph.hpp"

#include "tgcover/util/check.hpp"

namespace tgc::graph {

InducedSubgraph induce_vertices(const Graph& g,
                                std::span<const VertexId> vertices) {
  InducedSubgraph out;
  out.to_parent.assign(vertices.begin(), vertices.end());
  out.to_local.reserve(vertices.size());
  for (VertexId local = 0; local < vertices.size(); ++local) {
    const VertexId parent = vertices[local];
    TGC_CHECK(parent < g.num_vertices());
    const bool inserted = out.to_local.emplace(parent, local).second;
    TGC_CHECK_MSG(inserted, "duplicate vertex " << parent << " in induce set");
  }

  GraphBuilder builder(vertices.size());
  for (VertexId local = 0; local < vertices.size(); ++local) {
    const VertexId parent = vertices[local];
    for (const VertexId nbr : g.neighbors(parent)) {
      const auto it = out.to_local.find(nbr);
      if (it != out.to_local.end()) builder.add_edge(local, it->second);
    }
  }
  out.graph = builder.build();
  return out;
}

void BallView::refuse_entry(VertexId la, VertexId lb) const {
  TGC_CHECK_MSG(lb != la, "ball row " << la << " lists itself");
  // Under lb's cursor sits the partner lb expects next. A smaller one is a
  // row already built without lb; otherwise lb's row lacks la.
  const std::size_t at = cursor_[lb];
  const bool skipped = at != offsets_[lb + 1] && adjacency_[at] < la;
  TGC_CHECK_MSG(!skipped, "asymmetric ball rows: " << adjacency_[at]
                                                    << " lacks " << lb);
  TGC_CHECK_MSG(false, "asymmetric ball rows: " << lb << " lacks " << la);
}

Graph filter_active(const Graph& g, const std::vector<bool>& active) {
  TGC_CHECK(active.size() == g.num_vertices());
  GraphBuilder builder(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (active[u] && active[v]) builder.add_edge(u, v);
  }
  return builder.build();
}

}  // namespace tgc::graph
