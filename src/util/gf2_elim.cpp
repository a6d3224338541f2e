#include "tgcover/util/gf2_elim.hpp"

#include <algorithm>

#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::util {

Gf2Eliminator::Gf2Eliminator(std::size_t dim, std::size_t aug_dim) {
  reset(dim, aug_dim);
}

void Gf2Eliminator::reset(std::size_t dim, std::size_t aug_dim) {
  dim_ = dim;
  words_ = (dim + 63) / 64;
  aug_dim_ = aug_dim;
  aug_words_ = (aug_dim + 63) / 64;
  inserted_ = 0;
  rank_ = 0;
  arena_.clear();
  scratch_.resize(words_ + aug_words_);
  pivot_to_row_.assign(dim, -1);
}

void Gf2Eliminator::begin_insert() {
  TGC_CHECK_MSG(aug_dim_ == 0 || inserted_ < aug_dim_,
                "augmented eliminator capacity exceeded");
  if (aug_dim_ > 0) {
    std::uint64_t* aug = scratch_.data() + words_;
    std::fill(aug, aug + aug_words_, 0);
    aug[inserted_ / 64] |= std::uint64_t{1} << (inserted_ % 64);
  }
  ++inserted_;
}

bool Gf2Eliminator::insert(const Gf2Vector& v) {
  TGC_CHECK(v.size() == dim_);
  begin_insert();
  std::copy(v.data(), v.data() + words_, scratch_.data());
  return finish_insert(words_, 0);
}

bool Gf2Eliminator::insert(std::span<const std::uint32_t> bits) {
  std::uint32_t top = 0;
  for (const std::uint32_t b : bits) {
    TGC_CHECK(b < dim_);
    top = std::max(top, b);
  }
  begin_insert();
  if (bits.empty()) return false;  // the zero vector
  const std::int32_t r = pivot_to_row_[top];
  if (r < 0) {
    // Independent as it stands: densify straight into a new arena row.
    std::uint64_t* dst = append_row(top);
    for (const std::uint32_t b : bits) {
      dst[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    return true;
  }
  // The first reduction step, fused with densifying: the reduced vector is
  // row r with the vector's bits flipped in (row r is zero above top's
  // word).
  const std::size_t end = top / 64 + 1;
  std::uint64_t* w = scratch_.data();
  const std::uint64_t* pivot_row =
      arena_.data() + static_cast<std::size_t>(r) * (words_ + aug_words_);
  std::copy(pivot_row, pivot_row + end, w);
  for (const std::uint32_t b : bits) {
    w[b / 64] ^= std::uint64_t{1} << (b % 64);
  }
  std::uint64_t* aug = w + words_;
  for (std::size_t i = 0; i < aug_words_; ++i) aug[i] ^= pivot_row[words_ + i];
  return finish_insert(end, 1);
}

bool Gf2Eliminator::finish_insert(std::size_t end, std::uint64_t steps) {
  std::uint64_t* row = scratch_.data();
  const std::size_t pivot =
      reduce_words(row, end, aug_dim_ > 0 ? row + words_ : nullptr, steps);
  if (pivot == Gf2Vector::npos) return false;
  // Only the words up to the pivot's word carry bits.
  std::copy(row, row + pivot / 64 + 1, append_row(pivot));
  return true;
}

std::uint64_t* Gf2Eliminator::append_row(std::size_t pivot) {
  // The new arena row arrives zeroed; it takes the scratch row's
  // certificate words.
  const std::size_t stride = words_ + aug_words_;
  arena_.resize((rank_ + 1) * stride);
  std::uint64_t* dst = arena_.data() + rank_ * stride;
  std::copy(scratch_.data() + words_, scratch_.data() + stride, dst + words_);
  pivot_to_row_[pivot] = static_cast<std::int32_t>(rank_);
  ++rank_;
  return dst;
}

std::size_t Gf2Eliminator::reduce_words(std::uint64_t* w, std::size_t end,
                                        std::uint64_t* aug,
                                        std::uint64_t steps) const {
  const std::size_t stride = words_ + aug_words_;
  std::size_t pivot = Gf2Vector::npos;
  for (;;) {
    while (end > 0 && w[end - 1] == 0) --end;
    if (end == 0) {
      pivot = Gf2Vector::npos;
      break;
    }
    pivot = (end - 1) * 64 + 63 -
            static_cast<std::size_t>(__builtin_clzll(w[end - 1]));
    const std::int32_t r = pivot_to_row_[pivot];
    if (r < 0) break;
    // Row r's top word is the pivot's word, end - 1: nothing above it.
    const std::uint64_t* row =
        arena_.data() + static_cast<std::size_t>(r) * stride;
    for (std::size_t i = 0; i < end; ++i) w[i] ^= row[i];
    if (aug != nullptr) {
      for (std::size_t i = 0; i < aug_words_; ++i) aug[i] ^= row[words_ + i];
    }
    ++steps;
  }
  obs::add(obs::CounterId::kGf2Pivots, steps);
  return pivot;
}

Gf2Vector Gf2Eliminator::reduce(Gf2Vector v) const {
  TGC_CHECK(v.size() == dim_);
  reduce_words(v.data(), v.num_words(), nullptr, 0);
  return v;
}

bool Gf2Eliminator::in_span(const Gf2Vector& v) const {
  TGC_CHECK(v.size() == dim_);
  Gf2Vector residual = v;
  return reduce_words(residual.data(), residual.num_words(), nullptr, 0) ==
         Gf2Vector::npos;
}

std::optional<std::vector<std::size_t>> Gf2Eliminator::combination_for(
    const Gf2Vector& v) const {
  TGC_CHECK_MSG(aug_dim_ > 0, "combination_for requires an augmented eliminator");
  TGC_CHECK(v.size() == dim_);
  Gf2Vector residual = v;
  Gf2Vector combo(aug_dim_);
  if (reduce_words(residual.data(), residual.num_words(), combo.data(), 0) !=
      Gf2Vector::npos) {
    return std::nullopt;
  }
  return combo.set_bits();
}

}  // namespace tgc::util
