#ifndef GSTORED_UTIL_BITVECTOR_FILTER_H_
#define GSTORED_UTIL_BITVECTOR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

/// Fixed-length hashed bit vector used by Algorithm 4 ("assembling variables'
/// internal candidates"). The coordinator builds one union of these per
/// variable from every site's internal candidates, and the engine probes it.
/// Its fixed length caps what a site ships per variable: the candidates go
/// as their ids while those encode shorter, else as this vector
/// (FilterEntry in net/wire.h). Membership tests have one-sided error:
/// MayContain never returns false for an inserted id (no false negatives),
/// so filtering with it never discards a real candidate.
class BitvectorFilter {
 public:
  /// Default length (in bits) used by the engine; the paper fixes the length
  /// so that the communication cost per variable is bounded.
  static constexpr size_t kDefaultBits = 1 << 16;

  BitvectorFilter() : BitvectorFilter(kDefaultBits) {}
  explicit BitvectorFilter(size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {
    GSTORED_CHECK_GT(bits, 0u);
  }

  size_t bits() const { return bits_; }

  /// Inserts an id (hash-mapped onto one bit, as in Algorithm 4 line 13-14).
  void Insert(uint64_t id) { words_[Slot(id)] |= Mask(id); }

  /// True if `id` may have been inserted (on this or any OR-ed vector).
  bool MayContain(uint64_t id) const {
    return (words_[Slot(id)] & Mask(id)) != 0;
  }

  /// Unions another filter into this one (coordinator-side OR).
  void UnionWith(const BitvectorFilter& other) {
    GSTORED_CHECK_EQ(bits_, other.bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Serialized size in bytes — the per-variable shipment cost of Alg. 4.
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word access for the wire codecs (net/wire.h).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Replaces the word array with decoded wire bytes. The decoder validates
  /// the word count against bits() before calling; mismatches are a bug.
  void AssignWords(std::vector<uint64_t> words) {
    GSTORED_CHECK_EQ(words.size(), words_.size());
    words_ = std::move(words);
  }

  /// Fraction of set bits; Alg. 4 withholds a union past 0.75
  /// (CandidateExchangeOptions::use_statistics).
  double FillRatio() const {
    size_t set = 0;
    for (uint64_t w : words_) set += static_cast<size_t>(__builtin_popcountll(w));
    return static_cast<double>(set) / static_cast<double>(bits_);
  }

 private:
  size_t Slot(uint64_t id) const { return (MixU64(id) % bits_) >> 6; }
  uint64_t Mask(uint64_t id) const {
    return uint64_t{1} << ((MixU64(id) % bits_) & 63);
  }

  size_t bits_;
  std::vector<uint64_t> words_;
};

}  // namespace gstored

#endif  // GSTORED_UTIL_BITVECTOR_FILTER_H_
