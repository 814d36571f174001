#ifndef GSTORED_CORE_ENGINE_H_
#define GSTORED_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/assembly.h"
#include "core/candidate_exchange.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "core/query_context.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "partition/partitioning.h"
#include "plan/planner.h"
#include "sparql/query_graph.h"
#include "store/local_store.h"
#include "store/matcher.h"

namespace gstored {

/// The optimization levels of the Fig. 9 ablation:
///  * kBasic       — "gStoreD-Basic": plain partial evaluation and assembly,
///                   no LEC machinery (the [18] baseline).
///  * kLecAssembly — "gStoreD-LA": LEC feature-based assembly only (Alg. 3).
///  * kLecPruning  — "gStoreD-LO": LA plus LEC feature-based pruning
///                   (Alg. 1-2) before assembly.
///  * kFull        — "gStoreD": LO plus assembling variables' internal
///                   candidates (Alg. 4).
enum class EngineMode { kBasic, kLecAssembly, kLecPruning, kFull };

/// Short printable name ("gStoreD-Basic", ..., "gStoreD").
const char* EngineModeName(EngineMode mode);

/// Execution-layer knobs of the engine, orthogonal to the EngineMode
/// optimization levels.
struct EngineOptions {
  /// Worker slots each site may use for its local matching and LPM
  /// enumeration, and the coordinator for the chain join of LEC pruning
  /// and assembly (1 = serial kernels). Slots are borrowed from `pool`
  /// below, so effective parallelism is bounded by the hardware regardless
  /// of the number of sites; results are byte-identical across thread
  /// counts. The knob is a ceiling, not a fixed fan-out: each site scales
  /// it to its fragment size (SiteSlotBudget), and the coordinator's join
  /// scales it to the seed-group size (JoinSlotBudget via
  /// ChainJoinOptions::min_seeds_per_slot), so small inputs skip pool
  /// coordination.
  size_t num_threads = 1;

  /// Worker pool every stage's sites run on (InProcessTransport::
  /// StageStream, one index per site, the calling thread as slot 0) and the
  /// slots above are borrowed from; nullptr = the process-wide
  /// ThreadPool::Shared(). Injecting a pool bounds an engine instance's
  /// total concurrency independently of other engines in the process (two
  /// engines with separate pools never contend).
  ThreadPool* pool = nullptr;

  /// Drive matching orders and LPM unit orders with the per-site
  /// GraphStatistics selectivity model, and let Alg. 4 withhold saturated
  /// unions (CandidateExchangeOptions::use_statistics). false reverts to
  /// the pre-statistics heuristics (greedy candidate counts, BFS unit
  /// orders) and broadcasts every union — the ablation baseline. Results
  /// are identical either way; only enumeration cost and shipment volume
  /// change.
  bool use_statistics = true;

  /// Fault-injection plan of the QuerySession a context-free Run builds
  /// (the serving layer builds its sessions with it too). Default: no
  /// faults.
  FaultPlan fault_plan;

  /// Per-attempt response deadline for every pipeline stage (virtual
  /// milliseconds, compared against injected latencies only).
  double stage_deadline_ms = 1000.0;

  /// Dispatch attempts per site per stage before hedging/degradation.
  int max_attempts = 3;

  /// Re-run an unrecoverable site's stage on the coordinator against its
  /// local fragment copy (straggler hedging). With hedging on, every fault
  /// still yields the exact result; turn it off to model a deployment
  /// without replicas, where lost sites degrade the query to a flagged
  /// partial result.
  bool hedge_local = true;

  /// Which src/plan/ enumerator scores matching and unit orders
  /// (`enumerator = kDp | kGreedy`). Only meaningful with use_statistics;
  /// results are byte-identical for either setting (orders change
  /// enumeration cost, never the answer set).
  PlanOptions plan;

  /// The stage policy of every pipeline stage; the retry backoff keeps
  /// StagePolicy's default.
  StagePolicy MakeStagePolicy() const {
    StagePolicy policy;
    policy.deadline_ms = stage_deadline_ms;
    policy.max_attempts = max_attempts;
    policy.hedge_local = hedge_local;
    return policy;
  }
};

/// Ledger stage labels.
inline constexpr char kLecFeatureStage[] = "lec_features";
inline constexpr char kLpmShipmentStage[] = "lpm_shipment";

/// Per-query statistics — the columns of Tables I-III.
struct QueryStats {
  bool star_shortcut = false;  ///< star query answered locally, no shipment
  bool selective = false;      ///< query has a selective triple pattern

  double candidate_time_ms = 0.0;     ///< Alg. 4 stage (kFull only)
  double partial_eval_time_ms = 0.0;  ///< local matches + LPM enumeration
  double lec_prune_time_ms = 0.0;     ///< Alg. 1-2 (feature ship + join)
  double assembly_time_ms = 0.0;      ///< Alg. 3 / basic assembly
  double total_time_ms = 0.0;

  /// Per-site transport reports of the partial-evaluation stage (the
  /// dominant per-site stage): queue_wait_ms is virtual transport wait
  /// (injected latency, blown deadlines, backoff), exec_ms is real compute.
  std::vector<SiteStageReport> partial_eval_sites;

  size_t candidate_shipment_bytes = 0;  ///< Alg. 4 bit vectors
  size_t lec_shipment_bytes = 0;        ///< LEC features to the coordinator
  size_t lpm_shipment_bytes = 0;        ///< surviving LPMs to the coordinator

  size_t num_lpms = 0;             ///< local partial matches found
  size_t num_lpms_shipped = 0;     ///< after LEC pruning
  size_t num_features = 0;         ///< distinct LEC features (|Ψ|)
  size_t num_surviving_features = 0;
  size_t num_local_matches = 0;    ///< complete matches found inside sites
  size_t num_crossing_matches = 0; ///< matches produced by assembly
  size_t num_matches = 0;          ///< final deduplicated result count

  bool prune_bailed_out = false;

  // ---- Fault-tolerance columns (zero / false in a healthy run).
  size_t transport_retries = 0;  ///< extra dispatch attempts, all stages
  size_t hedged_sites = 0;       ///< site-stages recovered by local hedging
  bool exchange_degraded = false;  ///< Alg. 4 filters dropped (still exact)
  bool pruning_degraded = false;   ///< LEC pruning skipped (still exact)
  bool exact = true;               ///< false when site data was lost

  // ---- Serving-layer columns (zero / false for a standalone query).
  bool cancelled = false;        ///< stopped at a stage boundary (see ctx)
  bool plan_cache_hit = false;   ///< executed with a cached QueryPlan
  bool result_cache_hit = false; ///< whole outcome served from cache
  bool coalesced_hit = false;    ///< outcome copied from an in-flight twin
  size_t order_scorings = 0;     ///< order scoring passes this query ran

  AssemblyStats assembly;
};

/// Completeness of one site's contribution to a query, as observed by the
/// coordinator after retries and hedging.
struct SiteReport {
  /// The site's complete local matches (and LPM existence) reached the
  /// coordinator in stage B.
  bool partial_eval_complete = true;
  /// The site's surviving LPMs reached the coordinator in stage D (star
  /// queries have no stage D and leave this true).
  bool lpms_complete = true;
  bool crashed = false;  ///< the fault plan killed the site mid-query
  bool hedged = false;   ///< some stage was recovered by local re-execution
  int max_attempts = 0;  ///< worst per-stage dispatch attempts

  bool complete() const { return partial_eval_complete && lpms_complete; }
};

/// A query result that distinguishes exact from partial answers. `exact` is
/// false only when some site's data was irrecoverably lost (crash or
/// exhausted retries with hedging disabled); the matches are then a correct
/// *subset* of the true answer — graceful degradation never fabricates
/// matches, because every degradation path (skipped filters, skipped
/// pruning, over-shipped LPMs) errs toward shipping more, and assembly
/// plus dedup are sound on any subset of the true LPM set.
struct QueryOutcome {
  std::vector<Binding> matches;
  bool exact = true;
  std::vector<SiteReport> sites;  ///< per-site completeness, one per fragment
  /// Per-stage breakdown of this run (Tables I-III columns). Always filled:
  /// the outcome is the complete record of the query, so callers no longer
  /// thread a QueryStats out-parameter through the API.
  QueryStats stats;
};

/// One query, fully described: what to evaluate, at which optimization
/// level and over whose session. This is the single entry into
/// DistributedEngine::Run.
///
/// `context == nullptr` runs over a fresh QuerySession built for the call
/// (the engine's fault plan, session id 0, a ledger starting at zero); a
/// non-null context supplies the transport session, slot budget,
/// cancellation and deadline, and cached plan. Either way, any number of
/// requests may run concurrently over one engine.
struct QueryRequest {
  const QueryGraph* query = nullptr;
  EngineMode mode = EngineMode::kFull;
  QueryContext* context = nullptr;

  QueryRequest(const QueryGraph& q, EngineMode m = EngineMode::kFull)
      : query(&q), mode(m) {}
  QueryRequest(const QueryGraph& q, EngineMode m, QueryContext& ctx)
      : query(&q), mode(m), context(&ctx) {}
};

/// The distributed SPARQL engine over a simulated cluster: one site per
/// fragment, a coordinator, and the four optimization levels above. All
/// coordinator<->site traffic rides the in-process transport
/// (net/transport.h) as typed wire messages; the fault plan in
/// EngineOptions makes the transport drop, delay, duplicate and reorder them
/// deterministically.
///
/// The engine itself is a stateless facade over shared immutable state —
/// the partitioning's fragments, one LocalStore (CSR graph + statistics)
/// per fragment, and the options. All per-query mutable state lives in a
/// QueryContext, so Run() is const and any number of requests can run
/// concurrently over one engine (the serving layer in src/serve/ does
/// exactly that).
///
/// The partitioning (and the dataset behind it) must outlive the engine.
class DistributedEngine {
 public:
  explicit DistributedEngine(const Partitioning* partitioning,
                             EngineOptions options = {});

  DistributedEngine(const DistributedEngine&) = delete;
  DistributedEngine& operator=(const DistributedEngine&) = delete;

  /// Evaluates one QueryRequest and returns the full outcome: matches
  /// (deduplicated full bindings over the query's vertices), the
  /// exact-vs-partial flag, per-site completeness and the per-stage stats.
  /// Star queries take the local-only fast path regardless of mode (Sec.
  /// VIII-B). With a context, the engine never resets the context's ledger
  /// (a fresh QuerySession starts at zero); without one, the call builds
  /// its own QuerySession. Concurrent calls are thread-safe as long as
  /// they do not share a context.
  QueryOutcome Run(const QueryRequest& request) const;

  const Partitioning& partitioning() const { return *partitioning_; }
  const LocalStore& store(int site) const { return *stores_[site]; }
  int num_sites() const { return static_cast<int>(stores_.size()); }
  const EngineOptions& options() const { return options_; }

 private:
  QueryOutcome RunInternal(const QueryRequest& request,
                           QueryContext& ctx) const;

  const Partitioning* partitioning_;
  EngineOptions options_;
  std::vector<std::unique_ptr<LocalStore>> stores_;
};

/// Deduplicates a set of bindings in place (sort + unique).
void DedupBindings(std::vector<Binding>* bindings);

}  // namespace gstored

#endif  // GSTORED_CORE_ENGINE_H_
