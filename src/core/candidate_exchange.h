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
  /// Length of the hashed bit vector each union is, and so the cap on each
  /// shipped entry: a site sends a variable's candidates as ids while they
  /// encode shorter than this vector (IdsEncodeShorter in net/wire.h), else
  /// as the vector.
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
  /// after retries and hedging) or failed to decode, as a set that misses
  /// or repeats a variable does. A partial union would
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
  /// Entries of the sites' decoded filter sets by form (FilterEntry in
  /// net/wire.h), summed over sites and variables.
  size_t id_entries = 0;
  size_t vector_entries = 0;
  /// Response time of the stage (slowest site; virtual transport wait plus
  /// real compute).
  double stage_millis = 0.0;
  /// Transport effort spent: extra dispatch attempts and locally-hedged
  /// site executions.
  size_t transport_retries = 0;
  size_t hedged_sites = 0;
};

/// Runs Algorithm 4 over the cluster transport in one round: each site
/// computes the internal candidates C(Q, v) of every variable and ships
/// them to the coordinator in one typed wire message, each variable as its
/// strictly ascending ids or as its `filter_bits`-bit hashed vector,
/// whichever encodes shorter (so no entry is longer than the fixed-length
/// vector). The coordinator inserts the ids and ORs the vectors into one
/// `filter_bits`-bit union per variable, exactly the OR of fixed-length
/// site vectors, and broadcasts it: as ids when every site sent ids and
/// their merged list still encodes shorter, else as the vector. The
/// returned filters have one-sided error: any vertex appearing in a final
/// match is guaranteed to pass, so using them to restrict extended-vertex
/// assignments is safe (variables that are not exchanged simply stay
/// unfiltered).
///
/// Fault behaviour: any lost, undecodable or incomplete filter set (one
/// that does not carry every variable exactly once) degrades the whole
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
