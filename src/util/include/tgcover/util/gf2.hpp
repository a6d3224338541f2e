#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tgc::util {

/// A fixed-size vector over GF(2), packed 64 bits per word.
///
/// This is the workhorse of the cycle-space machinery: cycles are represented
/// by their edge-incidence vectors (Section IV-A of the paper), cycle addition
/// is XOR, and linear independence is tested by Gaussian elimination.
class Gf2Vector {
 public:
  Gf2Vector() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit Gf2Vector(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  void reset(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// GF(2) addition: *this += other (bitwise XOR). Sizes must match.
  void xor_assign(const Gf2Vector& other);

  /// Number of set bits (e.g. the length |C| of a cycle's incidence vector).
  std::size_t popcount() const;

  /// True iff every bit is zero.
  bool is_zero() const;

  /// Index of the highest set bit; `npos` when the vector is zero.
  std::size_t highest_set_bit() const;

  /// Index of the lowest set bit; `npos` when the vector is zero.
  std::size_t lowest_set_bit() const;

  /// Calls `fn(index)` for each set bit in increasing index order.
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// All set-bit indices in increasing order.
  std::vector<std::size_t> set_bits() const;

  /// The packed words, bit i in word i / 64 (bits past size() stay zero).
  std::size_t num_words() const { return words_.size(); }
  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }

  friend bool operator==(const Gf2Vector& a, const Gf2Vector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// 64-bit mixing hash of the contents (for dedup tables).
  std::uint64_t hash() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tgc::util
