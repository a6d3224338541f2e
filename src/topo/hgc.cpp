#include "tgcover/topo/hgc.hpp"

#include <algorithm>
#include <numeric>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/topo/homology.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/gf2_elim.hpp"

namespace tgc::topo {

namespace {

using graph::Graph;
using graph::VertexId;

/// Active vertex/edge counts with `skip` additionally removed.
struct ActiveCounts {
  std::size_t vertices = 0;
  std::size_t edges = 0;
};

ActiveCounts count_active(const Graph& g, const std::vector<bool>& active,
                          VertexId skip) {
  ActiveCounts c;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (active[v] && v != skip) ++c.vertices;
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (active[u] && active[v] && u != skip && v != skip) ++c.edges;
  }
  return c;
}

/// Connectivity over active vertices, skipping `skip`.
bool connected_active(const Graph& g, const std::vector<bool>& active,
                      VertexId skip, std::size_t active_count) {
  if (active_count <= 1) return true;
  VertexId start = 0;
  while (!active[start] || start == skip) ++start;
  graph::BoundedBfs reach;
  reach.run(g, {&start, 1}, graph::kUnreached, [&](VertexId w, graph::EdgeId) {
    return active[w] && w != skip;
  });
  return reach.reached().size() == active_count;
}

/// Does the active sub-complex (minus `skip`) have trivial H1? Triangles are
/// taken from the precomputed full complex and filtered by activity; rows use
/// the parent graph's edge ids, so no re-indexing is needed.
bool trivial_h1_active(const Graph& g, const RipsComplex& complex,
                       const std::vector<bool>& active, VertexId skip,
                       const ActiveCounts& counts, std::size_t components) {
  TGC_CHECK(counts.edges + components >= counts.vertices);
  const std::size_t nu = counts.edges + components - counts.vertices;
  if (nu == 0) return true;
  util::Gf2Eliminator elim(g.num_edges());
  for (const Triangle& t : complex.triangles()) {
    bool keep = true;
    for (const VertexId v : t.vertices) {
      if (!active[v] || v == skip) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    util::Gf2Vector row(g.num_edges());
    for (const graph::EdgeId e : t.edges) row.set(e);
    elim.insert(std::move(row));
    if (elim.rank() == nu) return true;
  }
  return false;
}

}  // namespace

bool hgc_verify(const Graph& g) {
  if (!graph::is_connected(g)) return false;
  const RipsComplex complex(g);
  return first_homology_trivial(complex);
}

HgcResult hgc_schedule(const Graph& g, const std::vector<bool>& internal,
                       util::Rng& rng) {
  TGC_CHECK(internal.size() == g.num_vertices());
  HgcResult result;
  result.active.assign(g.num_vertices(), true);
  result.initially_verified = hgc_verify(g);
  if (!result.initially_verified) {
    result.survivors = g.num_vertices();
    return result;
  }

  const RipsComplex complex(g);

  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  bool progress = true;
  while (progress) {
    progress = false;
    ++result.passes;
    for (const VertexId v : order) {
      if (!result.active[v] || !internal[v]) continue;
      const ActiveCounts counts = count_active(g, result.active, v);
      if (!connected_active(g, result.active, v, counts.vertices)) continue;
      if (!trivial_h1_active(g, complex, result.active, v, counts,
                             /*components=*/1)) {
        continue;
      }
      result.active[v] = false;
      ++result.deleted;
      progress = true;
    }
  }
  result.survivors = g.num_vertices() - result.deleted;
  return result;
}

}  // namespace tgc::topo
