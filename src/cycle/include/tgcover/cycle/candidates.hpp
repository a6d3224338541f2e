#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/util/gf2.hpp"

namespace tgc::cycle {

/// Set of cycles keyed by their edge-id lists.
///
/// Candidates are regenerated from many BFS roots, so both the candidate
/// enumerator and the streaming span test keep only the first occurrence of
/// each cycle. The key is the cycle's edge ids in increasing order (callers
/// sort them; the table compares sequences) — at most τ ids, so hashing and
/// comparing cost O(τ) rather than O(|E|/64) words. Keys sit back to back in
/// one flat id arena, each behind its length, and an open-addressing table
/// of (hash tag, arena offset) slots indexes them. Every probe whose tag
/// matches compares the stored ids, so a colliding pair of *distinct*
/// cycles both survive (regression-tested in cycle_test). `clear` keeps the
/// capacity of both arrays: a worker deduping stream after stream stops
/// allocating once they have grown.
class CycleDedup {
 public:
  /// Sizes the table for `expected` keys up front: the table spans every
  /// root, and growing it mid-stream re-inserts every key.
  void reserve(std::size_t expected);

  /// Returns true iff `ids` was not seen before, recording a copy if so.
  bool insert(std::span<const graph::EdgeId> ids);

  std::size_t size() const { return size_; }

  /// Probe-table slots: a power of two that grows with the stream and is
  /// kept by `clear`.
  std::size_t table_size() const { return slots_.size(); }

  void clear();

  /// The key hash: ids folded two per 64-bit word, then avalanched.
  static std::uint64_t hash(std::span<const graph::EdgeId> ids);

 private:
  /// Re-sizes the table to `slots` and re-inserts every stored key.
  void rehash(std::size_t slots);

  std::vector<std::uint64_t> slots_;  // hash >> 32 << 32 | offset + 1; 0 empty
  std::vector<graph::EdgeId> keys_;   // per key: length, then its ids
  std::size_t size_ = 0;
};

/// A candidate cycle produced by the Horton-style generator.
struct CandidateCycle {
  util::Gf2Vector edges;
  std::uint32_t length = 0;
};

struct CandidateOptions {
  /// BFS trees are truncated at this depth. kUnreached = full trees.
  std::uint32_t depth_limit = graph::kUnreached;
  /// Candidates longer than this are discarded. kUnreached = keep all.
  std::uint32_t max_length = graph::kUnreached;
  /// When true, keep only candidates whose chord endpoints have their lowest
  /// common ancestor at the BFS root — the literal candidate set of
  /// Algorithm 1, line 5. When false (default), keep the fundamental cycle of
  /// every chord of every rooted tree; this is a mod-2 superset of the
  /// Algorithm 1 set (the tree-path segments above the LCA cancel), so the
  /// greedy basis it yields is still a minimum cycle basis, and the
  /// length-bounded variant exactly spans the short-cycle subspace (see
  /// DESIGN.md §3).
  bool lca_at_root_only = false;
};

/// Horton candidate cycles of `g`, deduplicated by incidence vector.
///
/// For every root v, a lexicographic shortest-path tree is built (ties broken
/// toward the smallest vertex id, giving unique subpath-closed shortest
/// paths). For every non-tree edge (x, y) reached by the tree, the candidate
/// is the fundamental cycle of that chord: tree path x→lca, tree path y→lca,
/// plus the chord; its length is depth(x) + depth(y) + 1 - 2·depth(lca).
///
/// Candidates are returned sorted by increasing length (then by an arbitrary
/// deterministic key) — the order Algorithm 1 consumes them in (line 7).
std::vector<CandidateCycle> fundamental_cycle_candidates(
    const graph::Graph& g, const CandidateOptions& options = {});

}  // namespace tgc::cycle
