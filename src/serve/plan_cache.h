#ifndef GSTORED_SERVE_PLAN_CACHE_H_
#define GSTORED_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/local_partial_match.h"
#include "core/query_context.h"
#include "serve/lru_cache.h"
#include "sparql/query_graph.h"

namespace gstored::serve {

/// A query's canonicalized template shape: vertex constants abstracted to a
/// "constant" marker (their identity varies across instances of one
/// template), predicate labels kept verbatim (the plan — orders, islands,
/// the duplicate-pattern verdict — depends on them exactly). The key is a
/// complete encoding of the abstracted graph under the canonical vertex
/// numbering, so two queries share a key if and only if they are isomorphic
/// as predicate-labelled shapes — equal keys never collide.
struct CanonicalForm {
  std::string key;
  /// canon_of[v] = the canonical position of instance vertex v. Identity
  /// when `canonical` is false.
  std::vector<QVertexId> canon_of;
  /// False when the shape's symmetry group was too large to search and the
  /// key fell back to the input-order encoding: differently-numbered
  /// isomorphic instances may then miss each other (cost), never collide
  /// (correctness).
  bool canonical = true;
};

/// Canonicalizes `query`'s shape: color refinement over (variable/constant,
/// predicate-labelled incidence), then a minimal-encoding search over the
/// permutations within each color class, capped at kMaxCanonicalCandidates
/// candidates before falling back to the input-order key.
CanonicalForm CanonicalizeQueryShape(const QueryGraph& query);

/// Symmetry budget of the canonical search (product over color classes of
/// |class|!). LUBM-style templates with distinct predicates have singleton
/// classes (one candidate); only adversarially symmetric shapes hit the cap.
inline constexpr size_t kMaxCanonicalCandidates = 5040;  // 7!

/// One cached template plan, stored in *canonical* vertex space so every
/// instance of the template can translate it through its own CanonicalForm.
/// Filled once under `mu` by the first instance; `ready` flips (release)
/// after the fill, and the artifact vectors are immutable from then on, so
/// concurrent readers need no lock.
struct CachedPlan {
  /// HasImpossibleDuplicatePattern verdict — shape + predicate only, shared
  /// by every instance. (The missing-dictionary-constant half of resolution
  /// is per-instance and never cached.)
  bool statically_impossible = false;
  /// EnumerateIslandTasks of the template, masks in canonical space.
  std::vector<IslandTask> island_tasks;
  /// Per-site MatchingOrder results, canonical space. Empty when the filling
  /// instance resolved as impossible (its statistics were meaningless).
  std::vector<std::vector<QVertexId>> site_match_orders;
  /// Per-site per-task unit orders, aligned with `island_tasks`.
  std::vector<std::vector<std::vector<QVertexId>>> site_unit_orders;

  std::mutex mu;
  std::atomic<bool> ready{false};
};

/// Instance-space plan artifacts, owned by one in-flight query and pointed
/// into by its QueryContext. Translation re-sorts the island tasks into
/// ascending instance-mask order — the order EnumerateLocalPartialMatches
/// itself produces — so a plan-driven run emits LPMs in exactly the order a
/// plan-less run would.
struct PlanArtifacts {
  bool has_plan = false;
  bool statically_impossible = false;
  std::vector<IslandTask> island_tasks;
  std::vector<std::vector<QVertexId>> site_match_orders;
  std::vector<std::vector<std::vector<QVertexId>>> site_unit_orders;

  /// Points `ctx` at the artifacts (no-op when has_plan is false). The
  /// artifacts must outlive the execution.
  void Bind(QueryContext* ctx) const;
};

/// Computes the template plan for `query` (first instance of its shape) and
/// publishes it into `*plan` in canonical space. Thread-safe and
/// single-filler: all work — term resolution included — happens under
/// plan->mu after re-checking `ready`, so of N dispatchers racing on a
/// template's first sight exactly one resolves and scores; the others block
/// on the mutex and return without redoing any of it. Orders are only
/// filled when the instance resolved (an impossible instance has no
/// meaningful statistics); the verdict and island tasks are filled either
/// way, and the entry stays not-ready until some instance fills the orders.
void FillCachedPlan(const DistributedEngine& engine, const QueryGraph& query,
                    const CanonicalForm& form, CachedPlan* plan);

/// Translates a ready plan into `form`'s instance vertex space.
PlanArtifacts InstantiatePlan(const CachedPlan& plan,
                              const CanonicalForm& form);

/// LRU cache of template plans keyed on the canonical shape encoding.
/// Entries are shared_ptrs, so an eviction never frees a plan an in-flight
/// query still reads.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : cache_(capacity) {}

  /// Returns the entry for `key`, creating an unfilled one on first sight.
  /// `*created` reports which happened (a template-level miss).
  std::shared_ptr<CachedPlan> FindOrCreate(const std::string& key,
                                           bool* created) {
    return cache_.GetOrCreate(
        key, [] { return std::make_shared<CachedPlan>(); }, created);
  }

  void Clear() { cache_.Clear(); }
  size_t size() const { return cache_.size(); }
  size_t hits() const { return cache_.hits(); }
  size_t misses() const { return cache_.misses(); }

 private:
  LruCache<std::shared_ptr<CachedPlan>> cache_;
};

}  // namespace gstored::serve

#endif  // GSTORED_SERVE_PLAN_CACHE_H_
