// Multiboundary — a multiply-connected target area (Section V-B): sensors
// surround a lake they cannot be deployed in. The lake's rim is an *inner
// boundary*, not a coverage hole; the paper repairs it by cone filling — a
// virtual apex node connected to every rim node — after which the network is
// scheduled exactly like the simply-connected case. Verification uses
// Proposition 3: CB = outer boundary ⊕ inner boundary must stay
// τ-partitionable in the survivors (checked on the real network, apex
// removed).
//
//   multiboundary [--tau 4] [--nodes 350]
#include <cstdio>

#include "tgcover/boundary/cone.hpp"
#include "tgcover/boundary/cycle_extract.hpp"
#include "tgcover/boundary/label.hpp"
#include "tgcover/boundary/ring_select.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tgc;
  util::ArgParser args(argc, argv);
  const auto tau = args.get_uint<unsigned>("tau", 4, "confine size");
  const auto n = args.get_uint<std::size_t>("nodes", 350, "deployed nodes");
  const auto seed = args.get_uint<std::uint64_t>("seed", 424, "workload seed");
  args.finish();

  // Deploy around a circular lake.
  const double side = 7.0;
  const geom::Circle lake{{3.2, 3.4}, 1.3};
  const std::vector<geom::Circle> lakes{lake};
  util::Rng master(seed);
  gen::Deployment dep;
  for (std::uint64_t attempt = 0;; ++attempt) {
    if (attempt >= 64) {
      std::puts("could not generate a connected deployment");
      return 1;
    }
    util::Rng rng = master.fork(attempt);
    dep = gen::random_udg_with_holes(n, side, 1.0, lakes, rng);
    if (graph::is_connected(dep.graph)) break;
  }
  std::printf("deployed %zu nodes around the lake, %zu links\n", n,
              dep.graph.num_edges());

  // Select a thin connected outer boundary ring and label the lake rim;
  // extract both boundary cycles.
  const boundary::BoundaryRing outer_ring = boundary::select_boundary_ring(
      dep.graph, dep.positions, dep.area, 0.5, 0.9);
  const auto lake_band = boundary::label_hole_band(dep.positions, lake, 0.6);
  auto cb = outer_ring.cb;
  cb.xor_assign(boundary::hole_boundary_cycle(dep.graph, dep.positions,
                                              lake_band, lake.center));

  // Cone-fill the lake rim (n-1 of the n boundaries get a virtual apex).
  std::vector<graph::VertexId> rim;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (lake_band[v]) rim.push_back(v);
  }
  const std::vector<std::vector<graph::VertexId>> inner_sets{rim};
  const auto filled = boundary::fill_cones(dep.graph, inner_sets);
  std::printf("cone filling: apex node %u connected to %zu rim nodes\n",
              filled.apexes[0], rim.size());

  // Outer-ring, rim and apex nodes are not deletable.
  std::vector<bool> internal(filled.graph.num_vertices(), false);
  for (graph::VertexId v = 0; v < n; ++v) {
    internal[v] = !outer_ring.mask[v] && !lake_band[v];
  }

  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  const core::DccResult result = core::dcc_schedule(filled.graph, internal, config);
  std::printf("DCC (tau=%u): %zu of %zu nodes stay awake (%zu rounds)\n", tau,
              result.survivors - 1, n, result.rounds);  // minus the apex

  // Proposition 3 on the real network (apex removed).
  std::vector<bool> active(n);
  for (graph::VertexId v = 0; v < n; ++v) active[v] = result.active[v];
  const std::vector<bool> everyone(n, true);
  const bool initial = core::criterion_holds(dep.graph, everyone, cb, tau);
  const bool after = core::criterion_holds(dep.graph, active, cb, tau);
  std::printf("Proposition 3 criterion (outer + inner boundary): initially "
              "%s, after scheduling %s\n",
              initial ? "holds" : "fails", after ? "holds" : "fails");
  std::puts(initial && !after
                ? "PRESERVATION VIOLATED"
                : "the lake rim was treated as a boundary, not a hole");
  return initial && !after ? 1 : 0;
}
