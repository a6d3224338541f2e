#pragma once

#include <cstdint>
#include <vector>

#include "tgcover/cycle/span.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/util/stamped.hpp"

namespace tgc::core {

/// Parameters of the τ-void-preserving transformation (Definition 5).
struct VptConfig {
  unsigned tau = 3;
  /// Local neighbourhood radius; 0 selects the minimum legal k = ⌈τ/2⌉.
  unsigned k = 0;

  unsigned effective_k() const { return k != 0 ? k : (tau + 1) / 2; }
  /// MIS blocking radius: selected nodes end up pairwise ≥ k+1 = ⌈τ/2⌉+1 = m
  /// hops apart, the independence distance of Section V-B.
  unsigned mis_radius() const { return effective_k(); }
};

/// Reusable scratch storage for the VPT kernels.
///
/// A VPT test is a pure function of (graph, active, vertex), but evaluating
/// it needs a BFS frontier, an induced punctured subgraph, and the τ-span
/// kernel's trees, candidates and GF(2) rows. The workspace hoists them into
/// flat epoch-stamped arrays sized once to the graph order, an arena-backed
/// graph::BallView and the kernel's cycle::SpanScratch, so back-to-back
/// tests (the scheduler runs thousands per round) touch the allocator only
/// on capacity growth.
///
/// One workspace per thread: instances are not synchronized. The scheduler
/// keeps one per pool worker; results are bit-identical with or without a
/// workspace.
struct VptWorkspace {
  util::StampedArray<std::uint32_t> dist;    ///< BFS hop counts, O(1) reset
  util::StampedArray<graph::VertexId> local; ///< parent id → punctured-local id
  util::StampedArray<std::uint32_t> record;  ///< view id → record offset
  std::vector<graph::VertexId> queue;        ///< flat BFS frontier
  std::vector<graph::VertexId> members;      ///< collected k-hop neighbourhood
  graph::BallView ball;                      ///< arena-backed punctured view
  cycle::SpanScratch span;                   ///< tree, dedup, GF(2) row arena

  /// Grows the vertex-indexed arrays to cover ids < n (never shrinks).
  void ensure(std::size_t n) {
    dist.resize(n);
    local.resize(n);
    record.resize(n);
  }
};

/// The τ-VPT vertex-deletability test (Definition 5): vertex `v` may be
/// deleted iff its punctured k-hop neighbourhood Γ^k(v) — the subgraph
/// induced by the nodes within k hops of v, v excluded — is connected and
/// the maximum irreducible cycle of Γ^k(v) is bounded by τ. The second
/// condition is evaluated as "cycles of length ≤ τ span Γ^k(v)'s cycle
/// space" (equivalent; DESIGN.md §3), with early exit.
///
/// `active` masks the current topology; `v` must be active.
bool vpt_vertex_deletable(const graph::Graph& g,
                          const std::vector<bool>& active, graph::VertexId v,
                          const VptConfig& config);

/// Workspace overload: identical verdicts, no per-test allocations.
bool vpt_vertex_deletable(const graph::Graph& g,
                          const std::vector<bool>& active, graph::VertexId v,
                          const VptConfig& config, VptWorkspace& ws);

/// Same test evaluated on a node's local view (the data a real node has
/// after the k-hop collection protocol). Produces exactly the same verdict
/// as the oracle variant on a consistent view — the distributed/oracle
/// equivalence tests rely on this.
bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config);

/// Workspace overload of the local-view test (the distributed executor
/// evaluates one verdict per node per round through a shared workspace).
bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config, VptWorkspace& ws);

/// The τ-VPT edge-deletability test: edge (u, v) may be deleted iff the
/// k-hop neighbourhood of the edge (nodes within k hops of u or v) minus the
/// edge itself is connected with maximum irreducible cycle ≤ τ. DCC
/// schedules vertices; the edge operator completes Definition 5 and powers
/// the link-pruning scheduler (edge_scheduler.hpp).
///
/// `active` masks the nodes and `edge_active` (indexed by edge id) the
/// links of the current topology; `e` and both its endpoints must be
/// active.
bool vpt_edge_deletable(const graph::Graph& g, const std::vector<bool>& active,
                        const std::vector<bool>& edge_active, graph::EdgeId e,
                        const VptConfig& config);

/// Workspace overload: identical verdicts, no per-test allocations.
bool vpt_edge_deletable(const graph::Graph& g, const std::vector<bool>& active,
                        const std::vector<bool>& edge_active, graph::EdgeId e,
                        const VptConfig& config, VptWorkspace& ws);

}  // namespace tgc::core
