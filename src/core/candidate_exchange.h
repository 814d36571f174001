#ifndef GSTORED_CORE_CANDIDATE_EXCHANGE_H_
#define GSTORED_CORE_CANDIDATE_EXCHANGE_H_

#include <vector>

#include "net/cluster.h"
#include "net/transport.h"
#include "partition/partitioning.h"
#include "sparql/query_graph.h"
#include "store/local_store.h"
#include "util/bitvector_filter.h"

namespace gstored {

/// Ledger stage label under which Alg. 4 traffic is recorded.
inline constexpr char kCandidateStage[] = "candidates";

/// Knobs of Algorithm 4's exchange protocol.
struct CandidateExchangeOptions {
  /// Length of each hashed bit vector.
  size_t filter_bits = BitvectorFilter::kDefaultBits;

  /// Withhold saturated unions: a variable whose OR-ed vector has more than
  /// three quarters of its bits set passes almost everything, so the
  /// coordinator marks it not exchanged and leaves it out of the union
  /// broadcast, which would cost sites x vector bytes and prune nothing.
  /// false broadcasts every union as it is: the paper's fixed-length
  /// Alg. 4, which bench_ablation_filter_bits sweeps.
  bool use_statistics = true;

  /// Deadline/retry/hedging policy of the stage and its broadcast.
  StagePolicy policy;

  /// Worker pool the stage runs its sites on (InProcessTransport::
  /// StageStream); nullptr = ThreadPool::Shared(). The engine passes its
  /// EngineOptions::pool.
  ThreadPool* pool = nullptr;
};

/// Result of Algorithm 4 ("assembling variables' internal candidates").
struct CandidateExchange {
  /// One OR-ed filter per query vertex. filters[v] must not be read unless
  /// exchanged[v]: constants keep a placeholder 1-bit filter, a withheld
  /// variable keeps its saturated union, and a degraded exchange leaves
  /// placeholders everywhere.
  std::vector<BitvectorFilter> filters;
  /// exchanged[v] is true when v's union was assembled from every site and
  /// broadcast. Variables that are not exchanged must be treated as "may
  /// contain anything" — the one-sided error guarantee only covers
  /// exchanged variables.
  std::vector<bool> exchanged;
  /// True when some site's filter data never reached the coordinator (even
  /// after retries and hedging) or failed to decode. A partial union would
  /// break the one-sided error guarantee — a true match vertex of the lost
  /// site might test negative — so the engine must then skip every filter.
  /// The exchange clears `exchanged` itself when this happens.
  bool degraded = false;
  /// site_filter_ok[s] is true when site s received the union broadcast. A
  /// site that missed it must enumerate unfiltered (a safe superset).
  std::vector<bool> site_filter_ok;
  /// Wire bytes shipped under the "candidates" ledger stage: one filter set
  /// per site up and the union broadcast back — serialized message sizes,
  /// retransmissions included.
  size_t shipment_bytes = 0;
  /// Response time of the stage (slowest site; virtual transport wait plus
  /// real compute).
  double stage_millis = 0.0;
  /// Transport effort spent: extra dispatch attempts and locally-hedged
  /// site executions.
  size_t transport_retries = 0;
  size_t hedged_sites = 0;
};

/// Runs Algorithm 4 over the cluster transport in one round: each site
/// computes the internal candidates C(Q, v) of every variable, compresses
/// them into a fixed-length hashed bit vector, and ships the set to the
/// coordinator as a typed wire message; the coordinator ORs the per-site
/// vectors and broadcasts the union. The returned filters have one-sided
/// error: any vertex appearing in a final match is guaranteed to pass, so
/// using them to restrict extended-vertex assignments is safe (variables
/// that are not exchanged simply stay unfiltered).
///
/// Fault behaviour: any lost or undecodable filter set degrades the whole
/// exchange to "no filters" (see `degraded`); a site that misses the union
/// broadcast enumerates unfiltered.
///
/// `stores[i]` must be the LocalStore of fragment i. `transport` and
/// `ledger` come from the query's own session (QuerySession in
/// core/query_context.h), so concurrent queries never interleave their
/// exchange traffic or byte accounting.
CandidateExchange ExchangeInternalCandidates(
    const Partitioning& partitioning,
    const std::vector<const LocalStore*>& stores, const ResolvedQuery& rq,
    InProcessTransport& transport, ShipmentLedger& ledger,
    const CandidateExchangeOptions& options = {});

}  // namespace gstored

#endif  // GSTORED_CORE_CANDIDATE_EXCHANGE_H_
