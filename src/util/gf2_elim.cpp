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
  return finish_insert(words_);
}

bool Gf2Eliminator::insert(std::span<const std::uint32_t> bits) {
  std::size_t end = 0;
  for (const std::uint32_t b : bits) {
    TGC_CHECK(b < dim_);
    end = std::max<std::size_t>(end, b / 64 + 1);
  }
  begin_insert();
  std::fill(scratch_.data(), scratch_.data() + end, 0);
  for (const std::uint32_t b : bits) {
    scratch_[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  return finish_insert(end);
}

bool Gf2Eliminator::finish_insert(std::size_t end) {
  std::uint64_t* row = scratch_.data();
  const std::size_t pivot =
      reduce_words(row, end, aug_dim_ > 0 ? row + words_ : nullptr);
  if (pivot == Gf2Vector::npos) return false;

  // The new arena row arrives zeroed; only the words up to the pivot's
  // word and the certificate words carry bits.
  const std::size_t stride = words_ + aug_words_;
  arena_.resize((rank_ + 1) * stride);
  std::uint64_t* dst = arena_.data() + rank_ * stride;
  std::copy(row, row + pivot / 64 + 1, dst);
  std::copy(row + words_, row + stride, dst + words_);
  pivot_to_row_[pivot] = static_cast<std::int32_t>(rank_);
  ++rank_;
  return true;
}

std::size_t Gf2Eliminator::reduce_words(std::uint64_t* w, std::size_t end,
                                        std::uint64_t* aug) const {
  const std::size_t stride = words_ + aug_words_;
  std::uint64_t steps = 0;
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
  reduce_words(v.data(), v.num_words(), nullptr);
  return v;
}

bool Gf2Eliminator::in_span(const Gf2Vector& v) const {
  TGC_CHECK(v.size() == dim_);
  Gf2Vector residual = v;
  return reduce_words(residual.data(), residual.num_words(), nullptr) ==
         Gf2Vector::npos;
}

std::optional<std::vector<std::size_t>> Gf2Eliminator::combination_for(
    const Gf2Vector& v) const {
  TGC_CHECK_MSG(aug_dim_ > 0, "combination_for requires an augmented eliminator");
  TGC_CHECK(v.size() == dim_);
  Gf2Vector residual = v;
  Gf2Vector combo(aug_dim_);
  if (reduce_words(residual.data(), residual.num_words(), combo.data()) !=
      Gf2Vector::npos) {
    return std::nullopt;
  }
  return combo.set_bits();
}

}  // namespace tgc::util
