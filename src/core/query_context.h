#ifndef GSTORED_CORE_QUERY_CONTEXT_H_
#define GSTORED_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/local_partial_match.h"
#include "net/cluster.h"
#include "net/transport.h"
#include "sparql/query_graph.h"
#include "store/matcher.h"

namespace gstored {

/// Cooperative cancellation flag shared between a query's submitter and the
/// engine. The engine polls it at stage boundaries: a cancelled query stops
/// before its next stage and returns the matches accumulated so far as a
/// flagged non-exact (sound subset) outcome — never a crash or a torn
/// ledger, because each query writes only its own session ledger and the
/// abort happens between stages, not inside one.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A query template's plan: everything the serving layer's plan cache fills
/// once per template and replays for every later instance. It is written in
/// the vertex numbering of the query it was filled from, and the plan
/// cache's key fixes that numbering, so an instance reads it as is. Every
/// field is heuristic-only: final matches are always sorted + deduplicated,
/// so a replayed order changes enumeration cost, never the result.
struct QueryPlan {
  /// HasImpossibleDuplicatePattern verdict for the template. The
  /// constant-lookup half of resolution (missing dictionary terms) is always
  /// recomputed per instance — it depends on the bindings, not the shape.
  bool statically_impossible = false;
  /// EnumerateIslandTasks of the template; empty for a star, which never
  /// reaches LPM enumeration.
  std::vector<IslandTask> island_tasks;
  /// site_match_orders[site] feeds MatchOptions::precomputed_order.
  std::vector<std::vector<QVertexId>> site_match_orders;
  /// site_unit_orders[site] feeds EnumerateOptions::unit_orders, aligned
  /// with `island_tasks`.
  std::vector<std::vector<std::vector<QVertexId>>> site_unit_orders;
};

/// Everything one in-flight query needs that is not shared immutable state:
/// its transport session (ledger + transport), its slot budget, its
/// deadline/cancellation, and the plan a plan cache may have filled for its
/// template. DistributedEngine::Run is const — all per-query mutable state
/// lives here, so any number of contexts can run concurrently over one
/// engine's shared LocalStores and GraphStatistics.
struct QueryContext {
  // ---- Transport session (required). Each concurrent query runs over its
  // own ledger + transport (see QuerySession); sharing one across queries
  // would interleave their fault draws and tear the byte accounting.
  ShipmentLedger* ledger = nullptr;
  InProcessTransport* transport = nullptr;

  // ---- Execution resources. Slots come from the engine's
  // EngineOptions::pool; num_threads == 0 falls back to
  // EngineOptions::num_threads. The scheduler uses it to give each admitted
  // query its own slot budget on that pool.
  size_t num_threads = 0;

  // ---- Admission / lifetime.
  CancelToken* cancel = nullptr;  ///< optional; polled at stage boundaries
  /// Wall-clock budget in milliseconds, measured from Run entry;
  /// negative = no deadline. Expiry behaves exactly like cancellation.
  double deadline_ms = -1.0;

  /// Optional cached plan for the query's template; it must outlive the
  /// execution. nullptr = the engine plans every site itself.
  const QueryPlan* plan = nullptr;

  // ---- LPM cache hooks (optional). The engine calls `lpm_cache_get(site,
  // fingerprint, &matches, &lpms)` before a site's partial evaluation and
  // `lpm_cache_put` after computing it. `fingerprint` hashes the candidate-
  // exchange filters the site enumerated under (0 = unfiltered), because the
  // LPM set depends on them; the serving layer closes over the query key.
  std::function<bool(int site, uint64_t fingerprint,
                     std::vector<Binding>* matches,
                     std::vector<LocalPartialMatch>* lpms)>
      lpm_cache_get;
  std::function<void(int site, uint64_t fingerprint,
                     const std::vector<Binding>& matches,
                     const std::vector<LocalPartialMatch>& lpms)>
      lpm_cache_put;

  // ---- Outputs.
  /// MatchingOrder / unit-order scoring passes actually performed (i.e. not
  /// replayed from the plan). A plan-cache hit leaves this at 0.
  std::atomic<size_t> order_scorings{0};

  /// True when the query should stop at the next stage boundary.
  bool aborted(double elapsed_ms) const {
    if (cancel != nullptr && cancel->cancelled()) return true;
    return deadline_ms >= 0.0 && elapsed_ms > deadline_ms;
  }
};

/// One query's private transport session: a fresh ledger plus an
/// InProcessTransport stamped with the query's session id. Concurrent
/// queries each own one, so their traffic, fault draws and byte accounting
/// never interleave.
struct QuerySession {
  explicit QuerySession(int num_sites, FaultPlan plan = {},
                        uint32_t session_id = 0)
      : transport(num_sites, &ledger, std::move(plan), session_id) {}

  ShipmentLedger ledger;
  InProcessTransport transport;
};

}  // namespace gstored

#endif  // GSTORED_CORE_QUERY_CONTEXT_H_
