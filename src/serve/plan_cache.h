#ifndef GSTORED_SERVE_PLAN_CACHE_H_
#define GSTORED_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/engine.h"
#include "core/query_context.h"
#include "serve/lru_cache.h"
#include "sparql/query_graph.h"

namespace gstored::serve {

/// One cached template plan, in the vertex numbering its shape key fixes.
/// Filled once under `mu` by the first instance; `ready` flips (release)
/// after the fill, and `plan` is immutable from then on, so concurrent
/// readers need no lock.
struct CachedPlan {
  QueryPlan plan;

  std::mutex mu;
  std::atomic<bool> ready{false};
};

/// Computes the template plan for `query` (first instance of its shape) and
/// publishes it into `*entry`. Thread-safe and single-filler: all work —
/// term resolution included — happens under entry->mu after re-checking
/// `ready`, so of N dispatchers racing on a template's first sight exactly
/// one resolves and scores; the others block on the mutex and return
/// without redoing any of it. An instance that resolves as impossible (a
/// constant missing from the dictionary) has no meaningful statistics to
/// score orders with, so it leaves the entry not-ready for the next one.
/// Returns whether this call filled the entry.
bool FillCachedPlan(const DistributedEngine& engine, const QueryGraph& query,
                    CachedPlan* entry);

/// LRU cache of template plans keyed on QueryShapeKey. Entries are
/// shared_ptrs, so an eviction never frees a plan an in-flight query still
/// reads.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : cache_(capacity) {}

  /// Returns the entry for `key`, creating an unfilled one on first sight.
  std::shared_ptr<CachedPlan> FindOrCreate(const std::string& key) {
    return cache_.GetOrCreate(key,
                              [] { return std::make_shared<CachedPlan>(); });
  }

  void Clear() { cache_.Clear(); }

 private:
  LruCache<std::shared_ptr<CachedPlan>> cache_;
};

}  // namespace gstored::serve

#endif  // GSTORED_SERVE_PLAN_CACHE_H_
