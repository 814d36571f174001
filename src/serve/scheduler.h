#ifndef GSTORED_SERVE_SCHEDULER_H_
#define GSTORED_SERVE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/query_context.h"
#include "serve/plan_cache.h"
#include "serve/result_cache.h"

namespace gstored::serve {

/// Knobs of the serving layer.
struct ServeOptions {
  /// Dispatcher threads = maximum queries in flight at once. Queued queries
  /// beyond this wait for a free dispatcher.
  size_t max_inflight = 4;

  /// Total intra-query worker slots divided among the queries in flight:
  /// each admitted query gets max(1, total_slots / in_flight) as its
  /// QueryContext::num_threads, which the engine further scales per site
  /// (SiteSlotBudget) and per join (JoinSlotBudget). 0 = the hardware
  /// concurrency. Results are byte-identical across slot budgets.
  size_t total_slots = 0;

  /// Coalesce identical in-flight queries: the first cold (exact_key, mode)
  /// miss executes as the *leader*; identical submissions dispatched while
  /// it runs park as *followers* and receive a copy of its outcome instead
  /// of executing — the cold-cache dogpile closer. Only clean outcomes fan
  /// out (same admission rule as the result cache); a degraded or cancelled
  /// leader re-enqueues its followers to execute themselves. false is the
  /// ablation baseline.
  bool coalesce_inflight = true;

  bool use_result_cache = true;

  /// Byte budget for the result cache (0 = entry-count bound only). Whole
  /// outcomes vary by orders of magnitude with the template's selectivity,
  /// so bounding bytes keeps the footprint flat where an entry count
  /// cannot. The 1,024-entry capacity still applies as a second ceiling.
  size_t result_cache_capacity_bytes = 0;

  /// Test seam: when set, invoked on the dispatcher thread after the engine
  /// executed a query and before its outcome reaches cache admission and
  /// coalescing fan-out. Lets tests deterministically interleave an epoch
  /// flush (or hold a coalescing leader open while followers attach) at the
  /// one point those races are decided. Never set in production.
  std::function<void()> post_execute_hook;
};

/// Per-submission knobs, all defaulted — `Submit(query)` runs kFull on lane
/// 0 with no deadline. An aggregate, so call sites can name exactly what
/// they override: `Submit(q, {.lane = 3})`,
/// `Submit(q, {.mode = EngineMode::kBasic, .deadline_ms = 50.0}))`.
struct SubmitOptions {
  EngineMode mode = EngineMode::kFull;
  /// Submission lane (one per client) for lane-fair admission.
  int lane = 0;
  /// Per-query wall-clock budget in ms; negative = none. Expiry behaves
  /// like cancellation: the query stops at its next stage boundary and
  /// returns its accumulated matches flagged non-exact.
  double deadline_ms = -1.0;
};

/// Handle to one submitted query. Wait() blocks until completion; Cancel()
/// requests a stop at the query's next stage boundary (the outcome is then
/// the accumulated matches, flagged non-exact — never a crash or a torn
/// ledger). Cancelling a coalescing *follower* detaches it from its leader
/// (the follower completes cancelled at fan-out) without cancelling the
/// leader's execution. Tickets are shared_ptrs, so they outlive the
/// ServingEngine if the caller keeps them.
class QueryTicket {
 public:
  void Cancel() { cancel_.Cancel(); }

  /// Blocks until the query completes (or is drained at shutdown) and
  /// returns the full outcome — matches, exactness, per-site completeness
  /// and the per-stage stats. The reference stays valid for the ticket's
  /// life.
  const QueryOutcome& Wait();

  bool done() const;
  /// Shorthand for Wait()'s `.stats`; valid after Wait().
  const QueryStats& stats() const { return outcome_.stats; }
  /// Submit-to-completion wall time in milliseconds; valid after Wait().
  double latency_ms() const { return latency_ms_; }
  /// Global order in which dispatchers started serving tickets (1, 2, ...;
  /// 0 = never dispatched, i.e. drained from the queue at shutdown). A
  /// coalesced follower keeps the sequence of its own dispatch, not its
  /// leader's. Valid after Wait(); lets tests pin admission ordering.
  uint64_t dispatch_sequence() const { return dispatch_seq_; }

 private:
  friend class ServingEngine;

  QueryGraph query_;
  EngineMode mode_ = EngineMode::kFull;
  int lane_ = 0;
  double deadline_ms_ = -1.0;
  CancelToken cancel_;
  std::chrono::steady_clock::time_point submitted_;
  uint64_t dispatch_seq_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryOutcome outcome_;
  double latency_ms_ = 0.0;
};

/// The serving layer: keeps many queries in flight over one (const)
/// DistributedEngine — shared immutable fragments, per-query everything
/// else. Each admitted query runs over its own QuerySession (fresh ledger +
/// transport stamped with a unique session id) and a slot budget carved from
/// `total_slots`, so concurrent queries never interleave traffic, tear byte
/// accounting, or oversubscribe the pool.
///
/// Admission is lane-fair (one lane per client, chosen by the caller): each
/// free dispatcher pops the oldest ticket of the next non-empty lane after
/// the last one served, so lanes rotate round-robin and each lane is FIFO.
/// A lane's deque is erased the moment it drains, so clients churning lane
/// ids never grow the lane map (or the round-robin scan) without bound.
///
/// Identical in-flight queries coalesce (ServeOptions::coalesce_inflight):
/// one leader executes, followers wait on its ticket and receive a copy of
/// a clean outcome — see README.md for the full protocol, including the
/// degraded-leader release and follower-cancel detach rules.
///
/// Two caches sit in front of execution (see README.md for the key
/// derivations and invalidation rules): the plan cache (template shape as
/// written -> orders/islands/static verdict, replayed as is) and the result
/// cache (exact instance x mode -> whole outcome). The engine takes nothing
/// from the serving layer but a plan. Both caches are invalidated when any
/// fragment graph's finalize_epoch() changes, checked before every query,
/// and result admission is generation-stamped at dispatch so a query that
/// raced with the flush cannot re-insert an answer computed on the old
/// store. The epoch check assumes stores are only mutated while the engine
/// is otherwise quiescent (fragments are immutable during normal serving).
class ServingEngine {
 public:
  /// `engine` (and the partitioning behind it) must outlive the server.
  explicit ServingEngine(const DistributedEngine* engine,
                         ServeOptions options = {});

  /// Drains: joins the dispatchers after finishing in-flight queries;
  /// still-queued tickets complete as cancelled (empty, non-exact).
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues a query. All knobs (mode, lane, deadline) ride in
  /// SubmitOptions; the completed ticket's Wait() returns the full
  /// QueryOutcome.
  std::shared_ptr<QueryTicket> Submit(const QueryGraph& query,
                                      SubmitOptions opts = {});

  /// Drops every cached plan and outcome. Also triggered automatically when
  /// a fragment's finalize epoch changes.
  void InvalidateCaches();

  /// Monotonic cache / admission counters (relaxed reads; exact once idle).
  struct Counters {
    size_t executed = 0;       ///< queries that reached the engine
    size_t result_hits = 0;    ///< whole outcomes served from cache
    size_t plan_hits = 0;      ///< runs replaying a plan another run filled
    size_t plan_misses = 0;    ///< runs that filled the plan or had none
    /// Always 0: the per-site stage-B cache it counted is gone. It stays
    /// only because perfbench reads it; it goes with that benchmark's
    /// `serve.lpm_hits_per_exec` metric.
    size_t lpm_hits = 0;
    size_t epoch_flushes = 0;  ///< invalidations from finalize_epoch changes
    size_t coalesce_attached = 0;  ///< followers parked on an in-flight twin
    size_t coalesced = 0;      ///< followers completed from a leader's outcome
    size_t coalesce_released = 0;  ///< followers re-enqueued (unclean leader)
  };
  Counters counters() const;

  /// Lanes currently holding queued tickets (drained lanes are erased).
  /// Test/introspection hook for the lane-churn bound.
  size_t active_lanes() const;

  const DistributedEngine& engine() const { return *engine_; }
  const ServeOptions& options() const { return options_; }

 private:
  void DispatcherLoop();
  /// Pops the front ticket of the next lane in round-robin order; requires
  /// queued_ > 0 and mu_ held. Erases the lane when this pop drains it.
  std::shared_ptr<QueryTicket> PickNextLocked();
  void RunTicket(const std::shared_ptr<QueryTicket>& ticket);
  void CompleteTicket(const std::shared_ptr<QueryTicket>& ticket,
                      QueryOutcome outcome);
  /// Drains the in-flight entry for `key` after its leader finished with
  /// `outcome`: clean outcomes fan out to the followers, anything else
  /// re-enqueues them (front of their lanes) to execute themselves.
  void ResolveFollowers(const std::string& key, const QueryOutcome& outcome);
  uint64_t StoreEpochSum() const;
  void MaybeFlushOnEpochChange();

  const DistributedEngine* engine_;
  ServeOptions options_;
  size_t total_slots_;

  PlanCache plan_cache_;
  ResultCache result_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<int, std::deque<std::shared_ptr<QueryTicket>>> lanes_;
  size_t queued_ = 0;
  int last_lane_ = 0;  ///< round-robin cursor: next pick starts after this
  /// In-flight coalescing table, guarded by mu_: (exact key + mode) of every
  /// executing leader -> the followers parked on it. The leader inserts its
  /// (empty) entry before executing and drains it in ResolveFollowers.
  std::unordered_map<std::string,
                     std::vector<std::shared_ptr<QueryTicket>>>
      inflight_;

  std::atomic<size_t> in_flight_{0};
  std::atomic<uint32_t> next_session_{1};
  std::atomic<uint64_t> last_epoch_sum_{0};
  std::atomic<uint64_t> next_dispatch_seq_{1};

  std::atomic<size_t> executed_{0};
  std::atomic<size_t> result_hits_{0};
  std::atomic<size_t> plan_hits_{0};
  std::atomic<size_t> plan_misses_{0};
  std::atomic<size_t> epoch_flushes_{0};
  std::atomic<size_t> coalesce_attached_{0};
  std::atomic<size_t> coalesced_{0};
  std::atomic<size_t> coalesce_released_{0};

  std::vector<std::thread> dispatchers_;
};

}  // namespace gstored::serve

#endif  // GSTORED_SERVE_SCHEDULER_H_
