#include "core/seen_set.h"

#include "util/hash.h"

namespace gstored {

bool SeenSet::CheckAndInsert(LecSign sign, const Binding& binding) {
  uint64_t key = HashCombine(sign, HashRange(binding.begin(), binding.end()));
  auto& bucket = buckets_[key];
  for (const auto& [seen_sign, seen_binding] : bucket) {
    if (seen_sign == sign && seen_binding == binding) return true;
  }
  bucket.emplace_back(sign, binding);
  ++size_;
  return false;
}

void SeenSet::Clear() {
  buckets_.clear();
  size_ = 0;
}

}  // namespace gstored
