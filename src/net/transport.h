#ifndef GSTORED_NET_TRANSPORT_H_
#define GSTORED_NET_TRANSPORT_H_

#include <functional>
#include <vector>

#include "net/cluster.h"
#include "net/fault.h"
#include "net/wire.h"

namespace gstored {

class ThreadPool;

/// Deadline/retry/hedging knobs of one coordinator-driven stage. All times
/// are virtual milliseconds compared against injected latencies, never
/// against real compute time — so a plan's fault pattern, and therefore the
/// query outcome and ledger, replay deterministically.
struct StagePolicy {
  /// Per-attempt response deadline. A site whose end-of-stage marker (or any
  /// payload message) has not arrived by then is retried.
  double deadline_ms = 1000.0;

  /// Total dispatch attempts per site (>= 1). A retry re-ships the bytes
  /// the site function produced for the first attempt.
  int max_attempts = 3;

  /// Base retry backoff, doubled every attempt (virtual).
  double backoff_ms = 5.0;

  /// After all attempts fail, deliver the site's data from the
  /// coordinator-local fragment copy ("straggler hedging"). Recovers
  /// stragglers and — in this in-process runtime, where the replica is
  /// always available — crashed sites too.
  /// Disable to model a deployment without replicas, where lost sites
  /// degrade the query to a flagged partial result.
  bool hedge_local = true;
};

/// Transport-level view of one site's participation in a stage.
struct SiteStageReport {
  bool ok = false;       ///< the site's data is available to the coordinator
  bool hedged = false;   ///< recovered from the coordinator-local copy
  bool crashed = false;  ///< the fault plan had the site dead for this stage
  int attempts = 0;      ///< dispatch attempts consumed (>= 1)
  double queue_wait_ms = 0.0;  ///< injected latency + deadlines + backoff
  double exec_ms = 0.0;        ///< real wall-clock of the site function
};

/// Result of one coordinator-driven stage over all sites. The payloads
/// themselves went to the stage's SiteBatchConsumer.
struct StageResult {
  std::vector<SiteStageReport> sites;

  /// Response time of the stage: the slowest site's queue wait plus
  /// execution, matching the paper's "evaluate at different sites in
  /// parallel" cost semantics.
  double max_millis() const;
  /// True when every site's data made it to the coordinator.
  bool complete() const;
  /// Extra dispatch attempts beyond the first, summed over sites.
  size_t total_retries() const;
  /// Sites recovered by hedging.
  size_t hedged_sites() const;
};

/// Receives one completed site's deduplicated, sequence-ordered payload
/// messages from StageStream. It is called at most once per site that ends
/// up ok, on the thread that ran that site, and calls for different sites
/// may overlap: each call writes only its own site's slot, and anything
/// that folds across sites runs after the stage returns, in site order.
using SiteBatchConsumer =
    std::function<void(int site, std::vector<WireMessage> msgs)>;

/// The in-process cluster transport: typed serialized messages whose wire
/// sizes feed the ShipmentLedger, sites run on a worker pool, virtual time
/// for faults. Deterministic given the FaultPlan — which thread runs a site
/// and when its StageStream callback fires are scheduling-dependent, but
/// every per-site decision (drop/duplicate/latency draws, sequence
/// reassembly, deadline comparisons) is a pure function of the plan, so the
/// stage results, ledger byte counts and query outcomes replay
/// byte-identically.
class InProcessTransport {
 public:
  /// `session_id` stamps every message this transport sends — concurrent
  /// queries each run over their own transport instance (own ledger), and
  /// the session id makes their traffic distinguishable on the wire, as a
  /// shared socket transport would require.
  InProcessTransport(int num_sites, ShipmentLedger* ledger, FaultPlan plan = {},
                     uint32_t session_id = 0);

  int num_sites() const { return num_sites_; }

  /// Runs one coordinator-driven stage: every site executes `site_fn`
  /// and ships the returned messages to the coordinator; the transport
  /// enforces the per-attempt deadline, retries with exponential backoff,
  /// and finally hedges locally per `policy`. Each site's whole attempt
  /// loop is one index of ParallelFor(pool, num_sites, num_sites, ...), so
  /// the sites run concurrently on `pool`'s free workers and on the caller
  /// (slot 0), and each site's batches are handed to `on_site` the moment
  /// that site completes, while slower sites are still executing. A null
  /// `pool` means ThreadPool::Shared(), as for EngineOptions::pool.
  /// `ledger_stage` attributes the wire bytes (ShipmentLedger::kUnaccounted
  /// for control/result traffic outside the paper's shipment metric).
  ///
  /// `site_fn` runs at most once per site per stage: retries re-ship its
  /// buffered bytes and a hedge delivers them, so a site that is dead for
  /// the stage never runs it unless hedging asks for its data, and then
  /// runs it once. `site_fn` may itself call ParallelFor on `pool` (the
  /// pool's nesting guarantee). Each ok site's payloads reach `on_site`
  /// exactly once, deduplicated and sequence-ordered; a site that ends up
  /// not ok never reaches it.
  StageResult StageStream(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<std::vector<WireMessage>(int site)>& site_fn,
      const SiteBatchConsumer& on_site, ThreadPool* pool = nullptr);

  /// Reliable coordinator -> sites broadcast of `payload(site)`, a payload
  /// the caller keeps alive for the call, retrying undelivered sites up to
  /// policy.max_attempts. Sites read the broadcast content from coordinator
  /// memory, so only its delivery is modelled: every send is accounted in
  /// the ledger at WireMessage::kHeaderBytes + payload(site).size().
  /// Returns per-site delivery success; callers degrade gracefully for
  /// sites that never received the broadcast (there is no local hedge for a
  /// receive failure).
  std::vector<bool> BroadcastReliable(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<const std::vector<uint8_t>&(int site)>& payload);

 private:
  int num_sites_;
  ShipmentLedger* ledger_;
  FaultPlan plan_;
  uint32_t session_id_ = 0;
};

}  // namespace gstored

#endif  // GSTORED_NET_TRANSPORT_H_
