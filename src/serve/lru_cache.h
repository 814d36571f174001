#ifndef GSTORED_SERVE_LRU_CACHE_H_
#define GSTORED_SERVE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace gstored::serve {

/// A thread-safe string-keyed LRU map shared by the serving layer's plan
/// and result caches. Values are returned by copy / shared ownership so an
/// eviction never invalidates data an in-flight query is still reading.
/// Keys are complete encodings (see result_cache.h) — equality is full-key
/// comparison, so hash collisions can cost a miss but never return a wrong
/// value.
///
/// Two bounds compose: the entry-count capacity always applies, and the
/// byte-bounded constructor additionally weighs every value (via the
/// caller's weigher) and evicts the LRU tail while the resident total
/// exceeds `max_bytes`. Entries vary by orders of magnitude in some caches
/// (an unselective template's answer dwarfs a selective one's), so the byte
/// bound is what actually caps memory.
///
/// Every Clear() bumps a generation counter. A writer whose value was
/// computed before a flush can make its insert conditional on the
/// generation it observed at read time (PutIfGeneration): the insert and
/// the generation check happen under one lock, so an entry computed
/// against pre-flush state can never survive the flush — the guard behind
/// the serving layer's epoch-stamped cache admission.
template <typename V>
class LruCache {
 public:
  /// Bytes one value keeps resident. Consulted once per insert/overwrite.
  using Weigher = std::function<size_t(const V&)>;

  explicit LruCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Byte-bounded form. `max_bytes == 0` disables the byte bound (weights
  /// are then never computed, so `weigher` may be empty). A single entry
  /// heavier than the whole budget stays resident until displaced — evicting
  /// it immediately would make every oversized value thrash the cache into
  /// permanent emptiness.
  LruCache(size_t capacity, size_t max_bytes, Weigher weigher)
      : capacity_(capacity == 0 ? 1 : capacity),
        max_bytes_(max_bytes),
        weigher_(std::move(weigher)) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Copies the cached value into `*value` and refreshes its recency.
  bool Get(const std::string& key, V* value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    *value = it->second.value;
    return true;
  }

  /// Inserts or overwrites `key`, evicting least-recently-used entries while
  /// either bound (entry count, resident bytes) is exceeded.
  void Put(const std::string& key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    PutLocked(key, std::move(value));
  }

  /// Put, but only when the cache's generation still equals `generation`
  /// (as previously returned by generation()). Checked under the same lock
  /// as the insert, so a value computed before a Clear() can never be
  /// re-inserted after it. Returns whether the insert happened.
  bool PutIfGeneration(const std::string& key, V value, uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation != gen_) return false;
    PutLocked(key, std::move(value));
    return true;
  }

  /// Monotonic flush counter; bumped by every Clear(). Pair with
  /// PutIfGeneration to reject writes computed against pre-flush state.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gen_;
  }

  /// Like Get, but inserts `make()`'s result on a miss — the plan cache's
  /// find-or-create, done under one lock so two concurrent first instances
  /// of a template share a single entry.
  template <typename Make>
  V GetOrCreate(const std::string& key, Make&& make) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return it->second.value;
    }
    V value = make();
    const size_t weight = WeightOf(value);
    lru_.push_front(key);
    map_.emplace(key, Entry{value, weight, lru_.begin()});
    total_bytes_ += weight;
    EvictWhileOverLocked();
    return value;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    total_bytes_ = 0;
    ++gen_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  /// Resident bytes as measured by the weigher (0 without a byte bound).
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }

 private:
  struct Entry {
    V value;
    size_t weight = 0;
    std::list<std::string>::iterator pos;
  };

  size_t WeightOf(const V& value) const {
    return max_bytes_ != 0 && weigher_ ? weigher_(value) : 0;
  }

  void PutLocked(const std::string& key, V value) {
    const size_t weight = WeightOf(value);
    auto it = map_.find(key);
    if (it != map_.end()) {
      total_bytes_ += weight - it->second.weight;
      it->second.weight = weight;
      it->second.value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      EvictWhileOverLocked();
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), weight, lru_.begin()});
    total_bytes_ += weight;
    EvictWhileOverLocked();
  }

  void EvictWhileOverLocked() {
    while (map_.size() > capacity_ ||
           (max_bytes_ != 0 && total_bytes_ > max_bytes_ &&
            map_.size() > 1)) {
      auto it = map_.find(lru_.back());
      total_bytes_ -= it->second.weight;
      map_.erase(it);
      lru_.pop_back();
    }
  }

  const size_t capacity_;
  const size_t max_bytes_ = 0;  ///< 0 = entry-count bound only
  const Weigher weigher_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Entry> map_;
  size_t total_bytes_ = 0;
  uint64_t gen_ = 0;  ///< bumped by Clear(); guards PutIfGeneration
};

}  // namespace gstored::serve

#endif  // GSTORED_SERVE_LRU_CACHE_H_
