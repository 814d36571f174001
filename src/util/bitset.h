#ifndef GSTORED_UTIL_BITSET_H_
#define GSTORED_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

/// A fixed-size dynamic bitset used for LECSign signatures (Def. 8) and
/// candidate masks. Size is chosen at construction; all binary operations
/// require equal sizes.
class Bitset {
 public:
  Bitset() : size_(0) {}
  explicit Bitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  bool Test(size_t i) const {
    GSTORED_CHECK_LT(i, size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(size_t i, bool value = true) {
    GSTORED_CHECK_LT(i, size_);
    if (value) {
      words_[i >> 6] |= (uint64_t{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }

  /// Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) total += static_cast<size_t>(__builtin_popcountll(w));
    return total;
  }

  bool None() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  bool Any() const { return !None(); }

  /// True when every bit in [0, size) is set.
  bool All() const { return Count() == size_; }

  /// True when (*this & other) has no set bits. Sizes must match.
  bool DisjointWith(const Bitset& other) const {
    GSTORED_CHECK_EQ(size_, other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return false;
    }
    return true;
  }

  /// True when every set bit of *this is also set in `other`.
  bool IsSubsetOf(const Bitset& other) const {
    GSTORED_CHECK_EQ(size_, other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~other.words_[i]) return false;
    }
    return true;
  }

  Bitset& operator|=(const Bitset& other) {
    GSTORED_CHECK_EQ(size_, other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  Bitset& operator&=(const Bitset& other) {
    GSTORED_CHECK_EQ(size_, other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  friend Bitset operator|(Bitset lhs, const Bitset& rhs) {
    lhs |= rhs;
    return lhs;
  }

  friend Bitset operator&(Bitset lhs, const Bitset& rhs) {
    lhs &= rhs;
    return lhs;
  }

  friend bool operator==(const Bitset& lhs, const Bitset& rhs) {
    return lhs.size_ == rhs.size_ && lhs.words_ == rhs.words_;
  }

  friend bool operator!=(const Bitset& lhs, const Bitset& rhs) {
    return !(lhs == rhs);
  }

  /// Stable hash for use as an unordered_map key.
  uint64_t Hash() const {
    uint64_t h = HashCombine(0x5151bd1cabcdef01ULL, size_);
    for (uint64_t w : words_) h = HashCombine(h, w);
    return h;
  }

  /// Renders as e.g. "[00101]" with bit 0 leftmost, matching the paper's
  /// LECSign notation.
  std::string ToString() const {
    std::string out;
    out.reserve(size_ + 2);
    out.push_back('[');
    for (size_t i = 0; i < size_; ++i) out.push_back(Test(i) ? '1' : '0');
    out.push_back(']');
    return out;
  }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

struct BitsetHasher {
  size_t operator()(const Bitset& b) const {
    return static_cast<size_t>(b.Hash());
  }
};

}  // namespace gstored

#endif  // GSTORED_UTIL_BITSET_H_
