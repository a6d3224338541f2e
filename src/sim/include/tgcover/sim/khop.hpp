#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "tgcover/graph/graph.hpp"
#include "tgcover/sim/engine.hpp"

namespace tgc::sim {

/// What a node knows about its k-hop vicinity after the collection protocol:
/// the adjacency lists of every node within k hops (and its own). From this
/// the node can locally reconstruct the punctured neighbourhood graph
/// Γ^k(v) = G[N^k(v)] that the VPT deletability test needs (Section V-B:
/// "Each internal node v only needs to collect the connectivity Γ^k_G(v)
/// among its k-hop neighbors").
///
/// The view is the collection flood's own record pool — records
/// [node, degree, neighbours…] back to back, the owner's first — plus an
/// index over it. `erase_node` drops a deleted node's index entry; its
/// mentions inside other records stay, and readers skip them with `knows`.
/// That needs no tombstone set: collection indexed every node within k hops
/// of the owner, each erased id was one of them, and erasures only lengthen
/// paths, so an id met within k hops of the owner through the records is
/// unindexed exactly when it was erased.
struct LocalView {
  graph::VertexId owner = graph::kInvalidVertex;
  /// Graph order at collection: every id in the pool is below it.
  std::size_t order = 0;

  /// Record pool: the collection flood's records, in learn order.
  std::vector<graph::VertexId> pool;
  /// node id → offset of its record in `pool`, for every collected node
  /// not erased since.
  std::unordered_map<graph::VertexId, std::uint32_t> index;

  /// True iff the view holds a (non-erased) record for `v`.
  bool knows(graph::VertexId v) const {
    return index.find(v) != index.end();
  }

  /// The recorded neighbour list of `v` (must be known). May mention erased
  /// ids — filter with `knows` when reading post-deletion.
  std::span<const graph::VertexId> record(graph::VertexId v) const {
    return record_at(index.at(v));
  }

  /// The neighbour list of the record at pool offset `at` (an index value).
  std::span<const graph::VertexId> record_at(std::uint32_t at) const {
    return {pool.data() + at + 2, pool[at + 1]};
  }

  /// Removes a deleted node from the view: drops its index entry.
  void erase_node(graph::VertexId v) { index.erase(v); }
};

/// Runs the k-hop adjacency flood (flood.hpp, message type 1) on `runner`
/// (any SyncRunner substrate) for all active nodes and returns each node's
/// LocalView: node v holds the adjacency lists of exactly N^k(v) ∪ {v} over
/// the active topology. Inactive nodes get an empty view.
///
/// Message format: a sequence of records [node, degree, n_1..n_degree].
std::vector<LocalView> collect_k_hop_views(SyncRunner& runner, unsigned k);

}  // namespace tgc::sim
