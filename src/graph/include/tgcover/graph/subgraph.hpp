#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tgcover/graph/graph.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::graph {

/// A vertex-induced subgraph with the mapping back to the parent graph.
///
/// Local vertex ids are 0..k-1 in the order of the inducing vertex list;
/// `to_parent[local]` recovers parent ids. The VPT deletability test builds
/// the punctured k-hop neighbourhood Γ^k(v) through this.
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> to_parent;
  std::unordered_map<VertexId, VertexId> to_local;

  VertexId local_of(VertexId parent) const { return to_local.at(parent); }
  bool contains(VertexId parent) const { return to_local.count(parent) > 0; }
};

/// Subgraph induced by `vertices` (parent ids, need not be sorted, must be
/// duplicate-free).
InducedSubgraph induce_vertices(const Graph& g,
                                std::span<const VertexId> vertices);

/// Arena-backed punctured-neighbourhood view: a flat CSR slice over
/// punctured-local vertex ids, rebuilt in place for every VPT test.
///
/// This replaces the per-test `GraphBuilder::build()` Graph (whose edge
/// dedup hash map dominated both allocation traffic and memory at large n).
/// A BallView owns four flat arrays and nothing else; `build` re-fills them
/// without releasing capacity, so a worker testing thousands of balls
/// back-to-back is allocation-free once the arrays have grown to the
/// largest ball seen.
///
/// Edge-id compatibility is load-bearing: local edge ids are assigned in
/// first-encounter order while scanning rows in ascending local-vertex
/// order — exactly the insertion order `GraphBuilder` used — so every
/// downstream deterministic structure (Horton candidate enumeration, GF(2)
/// pivot sequences, the logical-cost counters) is byte-identical to the
/// builder-based implementation. The reverse direction of an edge takes its
/// id from a per-row cursor into the partner's already-built row: row lb's
/// entries above lb are met in ascending la, so each reverse edge is the
/// entry under lb's cursor, and the cursor steps past it. That requires each
/// emitted row to be sorted ascending (true for every caller: rows derive
/// from sorted Graph adjacency or sorted LocalView records, filtered
/// order-preservingly). The build also records where each row's entries
/// above its own vertex begin (`first_above`), which the chord scan starts
/// from.
class BallView {
 public:
  std::size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Edge ids parallel to `neighbors(v)`.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return {adjacency_edge_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Index into `neighbors(v)` of v's first neighbour above v (degree(v)
  /// when there is none).
  std::size_t first_above(VertexId v) const { return above_[v] - offsets_[v]; }

  /// Endpoints of edge `e`, with first < second.
  std::pair<VertexId, VertexId> edge(EdgeId e) const { return edges_[e]; }

  /// Rebuilds the view for `nv` local vertices. `row(la, emit)` is invoked
  /// once per local vertex in ascending order and calls `emit(lb)` for each
  /// neighbour, strictly ascending in `lb`, self-loops excluded. Symmetry is
  /// required (la appears in lb's row iff lb appears in la's) and checked in
  /// both directions: a reverse entry must sit under its partner's cursor,
  /// and every row's cursor must reach its row's end.
  template <typename RowFn>
  void build(std::size_t nv, RowFn&& row) {
    offsets_.clear();
    adjacency_.clear();
    adjacency_edge_.clear();
    edges_.clear();
    above_.clear();
    cursor_.clear();
    offsets_.reserve(nv + 1);
    offsets_.push_back(0);
    for (VertexId la = 0; la < nv; ++la) {
      std::size_t above = kNoneAbove;
      row(la, [&](VertexId lb) {
        if (la < lb) {
          if (above == kNoneAbove) above = adjacency_.size();
          adjacency_.push_back(lb);
          adjacency_edge_.push_back(static_cast<EdgeId>(edges_.size()));
          edges_.emplace_back(la, lb);
          return;
        }
        // The partner row lb (< la) is complete, and its entry la is the
        // next one under its cursor.
        if (lb == la || cursor_[lb] == offsets_[lb + 1] ||
            adjacency_[cursor_[lb]] != la) {
          refuse_entry(la, lb);
        }
        adjacency_.push_back(lb);
        adjacency_edge_.push_back(adjacency_edge_[cursor_[lb]++]);
      });
      if (above == kNoneAbove) above = adjacency_.size();
      above_.push_back(above);
      cursor_.push_back(above);
      offsets_.push_back(adjacency_.size());
    }
    for (VertexId lb = 0; lb < nv; ++lb) {
      if (cursor_[lb] != offsets_[lb + 1]) {
        refuse_entry(static_cast<VertexId>(nv), lb);
      }
    }
  }

  /// Logical payload bytes of the current ball (fixed per-element widths, so
  /// the `ball_view_bytes` counter is machine-independent): the CSR offsets,
  /// both adjacency-parallel arrays, and the edge endpoint list.
  std::size_t bytes() const {
    return 8 * offsets_.size() + (4 + 4) * adjacency_.size() +
           8 * edges_.size();
  }

 private:
  std::vector<std::size_t> offsets_;                  // nv+1
  std::vector<VertexId> adjacency_;                   // 2m, sorted per row
  std::vector<EdgeId> adjacency_edge_;                // 2m, parallel
  std::vector<std::pair<VertexId, VertexId>> edges_;  // m, (min, max)
  std::vector<std::size_t> above_;   // nv, first entry above the row's vertex
  std::vector<std::size_t> cursor_;  // nv, build only: next unmatched entry

  static constexpr std::size_t kNoneAbove = static_cast<std::size_t>(-1);

  /// Throws for row la's entry lb (≤ la) that lb's cursor does not match,
  /// or, with la = nv, for row lb's cursor short of its row's end; the
  /// message names the row that lacks its partner.
  [[noreturn]] void refuse_entry(VertexId la, VertexId lb) const;
};

/// The same vertex set as `g` but keeping only edges whose both endpoints are
/// active. Deleted (inactive) vertices become isolated; vertex and edge-count
/// bookkeeping stays id-stable across scheduler rounds.
Graph filter_active(const Graph& g, const std::vector<bool>& active);

}  // namespace tgc::graph
