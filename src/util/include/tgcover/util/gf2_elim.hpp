#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tgcover/util/gf2.hpp"

namespace tgc::util {

/// Incremental Gaussian elimination over GF(2).
///
/// Rows are kept in reduced row-echelon-ish form keyed by their highest set
/// bit (the pivot). `insert` implements the greedy independence test used by
/// Horton's minimum-cycle-basis algorithm (Algorithm 1 of the paper, lines
/// 10-14) and by all τ-span tests.
///
/// When constructed with `aug_dim > 0`, the eliminator additionally tracks,
/// for every stored row, which of the inserted vectors were XOR-combined to
/// produce it. This lets callers extract explicit cycle-partition
/// certificates (Definition 2): a reduced-to-zero target vector is the GF(2)
/// sum of a known subset of the inserted generators.
///
/// Storage is one flat word arena (each row followed by its certificate
/// words) plus one scratch row, so an eliminator that is `reset` between
/// streams stops allocating once both have grown. A candidate is reduced in
/// the scratch row and copied into the arena only when it is independent.
/// The reduction tracks the scratch row's top non-zero word: the row stored
/// at a pivot is zero above the pivot's word, so each XOR touches only the
/// words up to it, and the next pivot is found by stepping down from there.
/// A sparse insert fuses the first step with densifying: a vector whose top
/// bit has no row is written straight into a new arena row; otherwise the
/// scratch row starts as a copy of that bit's row with the vector's bits
/// flipped in, which counts as the first `gf2_pivots` step.
class Gf2Eliminator {
 public:
  /// @param dim      bit width of the vectors being eliminated
  /// @param aug_dim  maximum number of `insert` calls to track for
  ///                 certificate extraction; 0 disables augmentation
  explicit Gf2Eliminator(std::size_t dim = 0, std::size_t aug_dim = 0);

  /// Empties the eliminator and re-shapes it as if freshly constructed with
  /// these arguments, keeping the arena, scratch and pivot-table capacity.
  void reset(std::size_t dim, std::size_t aug_dim = 0);

  std::size_t dim() const { return dim_; }
  std::size_t rank() const { return rank_; }

  /// Inserts `v` if it is linearly independent of the stored rows.
  /// Returns true iff the row was added (i.e. `v` was independent).
  bool insert(const Gf2Vector& v);

  /// The same for the vector whose set bits are `bits` (distinct indices
  /// below dim(), any order) — the sparse form of a short cycle.
  bool insert(std::span<const std::uint32_t> bits);

  /// True iff `v` lies in the span of the inserted vectors.
  bool in_span(const Gf2Vector& v) const;

  /// Reduces `v` against the stored rows and returns the residual.
  Gf2Vector reduce(Gf2Vector v) const;

  /// For an augmented eliminator: reduces `v` and, if the residual is zero,
  /// returns the set of insertion indices whose generators sum to `v`.
  /// Returns std::nullopt when `v` is not in the span.
  /// Insertion indices count every call to `insert` (independent or not).
  std::optional<std::vector<std::size_t>> combination_for(
      const Gf2Vector& v) const;

  std::size_t inserted_count() const { return inserted_; }

 private:
  /// Opens the next insertion: checks the certificate capacity and seeds
  /// the scratch row's certificate words with the insertion's own bit.
  void begin_insert();
  /// Reduces the scratch row (words [0, end) hold it; `steps` reduction
  /// steps were already taken) and stores it when it is independent.
  bool finish_insert(std::size_t end, std::uint64_t steps);
  /// Appends a zeroed arena row for `pivot` carrying the scratch row's
  /// certificate words, and returns its first word.
  std::uint64_t* append_row(std::size_t pivot);
  /// Reduces the vector in words [0, end) of `w` (words from `end` on count
  /// as zero and are never read) against the stored rows, XORing each used
  /// row's certificate words into `aug` when it is non-null. Stops at the
  /// first pivot without a row and returns it, or npos once the vector is
  /// zero. Counts one `gf2_pivots` step per row XOR, on top of `steps`
  /// already taken.
  std::size_t reduce_words(std::uint64_t* w, std::size_t end,
                           std::uint64_t* aug, std::uint64_t steps) const;

  std::size_t dim_ = 0;
  std::size_t words_ = 0;      // words per row
  std::size_t aug_dim_ = 0;
  std::size_t aug_words_ = 0;  // certificate words per row
  std::size_t inserted_ = 0;
  std::size_t rank_ = 0;
  std::vector<std::uint64_t> arena_;    // rank_ rows of words_ + aug_words_
  std::vector<std::uint64_t> scratch_;  // one row of words_ + aug_words_
  std::vector<std::int32_t> pivot_to_row_;  // dim_-sized, -1 = no row
};

}  // namespace tgc::util
