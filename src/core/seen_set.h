#ifndef GSTORED_CORE_SEEN_SET_H_
#define GSTORED_CORE_SEEN_SET_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/local_partial_match.h"
#include "store/matcher.h"

namespace gstored {

/// Dedup set over materialized partial joins, keyed by (LECSign, binding).
/// Equality of a partial join is fully determined by those two components —
/// the crossing maps are a function of which LPMs were merged, which
/// (sign, binding) pins down — so only they are stored, not the (much
/// larger) crossing vectors. Each assembly slot owns its own set, so the
/// set needs no locking.
class SeenSet {
 public:
  /// True if an equal (sign, binding) entry was already recorded; records
  /// the pair otherwise.
  bool CheckAndInsert(LecSign sign, const Binding& binding);

  /// Number of distinct entries recorded.
  size_t size() const { return size_; }

  /// Drops every entry.
  void Clear();

 private:
  // key -> entries whose (sign, binding) hash collides on it.
  std::unordered_map<uint64_t, std::vector<std::pair<LecSign, Binding>>>
      buckets_;
  size_t size_ = 0;
};

}  // namespace gstored

#endif  // GSTORED_CORE_SEEN_SET_H_
