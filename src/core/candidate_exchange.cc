#include "core/candidate_exchange.h"

#include "net/wire.h"
#include "util/logging.h"

namespace gstored {

namespace {

/// A union with more than this fraction of its bits set passes almost every
/// id; the coordinator withholds it (CandidateExchangeOptions::
/// use_statistics).
constexpr double kMaxUnionFill = 0.75;

}  // namespace

CandidateExchange ExchangeInternalCandidates(
    const Partitioning& partitioning,
    const std::vector<const LocalStore*>& stores, const ResolvedQuery& rq,
    InProcessTransport& net, ShipmentLedger& ledger,
    const CandidateExchangeOptions& options) {
  const QueryGraph& q = *rq.query;
  size_t n = q.num_vertices();
  int num_sites = net.num_sites();
  GSTORED_CHECK_EQ(static_cast<size_t>(num_sites), stores.size());
  GSTORED_CHECK_EQ(static_cast<size_t>(num_sites),
                   partitioning.num_fragments());

  const ShipmentLedger::StageId stage_id = ledger.Intern(kCandidateStage);
  const size_t bytes_before = ledger.StageBytes(stage_id);

  CandidateExchange result;
  result.exchanged.assign(n, false);
  for (QVertexId v = 0; v < n; ++v) {
    result.exchanged[v] = q.vertex(v).is_variable;
  }
  result.site_filter_ok.assign(num_sites, false);

  // ---- Site side of Alg. 4 (lines 10-15): compute internal candidates per
  // variable, fold them into the site's bit vectors, and ship the filter set
  // as one wire message. Constants are never inserted or shipped.
  //
  // The consumer decodes and checks each site's set into that site's slot,
  // on the thread that ran the site; the coordinator side (lines 1-8), the
  // OR into the union, runs over the slots in site order after the stage.
  auto make_filter_row = [&] {
    std::vector<BitvectorFilter> row;
    row.reserve(n);
    for (QVertexId v = 0; v < n; ++v) {
      row.emplace_back(result.exchanged[v] ? options.filter_bits : 1);
    }
    return row;
  };
  std::vector<FilterSet> site_sets(num_sites);
  std::vector<uint8_t> site_lost(num_sites, 0);

  StageResult filt = net.StageStream(
      StageOrdinal(QueryStage::kCandidateFilters), stage_id, options.policy,
      [&](int site) {
        const Fragment& fragment = partitioning.fragments()[site];
        FilterSet set;
        std::vector<TermId> candidates;  // reused across the site's variables
        for (QVertexId v = 0; v < n; ++v) {
          if (!q.vertex(v).is_variable) continue;
          BitvectorFilter filter(options.filter_bits);
          stores[site]->CandidatesInto(rq, v, &candidates);
          for (TermId u : candidates) {
            if (fragment.IsInternal(u)) filter.Insert(u);
          }
          set.emplace_back(v, std::move(filter));
        }
        return std::vector<WireMessage>{
            MakeMessage(MessageType::kCandidateFilters, EncodeFilterSet(set))};
      },
      [&](int site, std::vector<WireMessage> msgs) {
        for (const WireMessage& msg : msgs) {
          if (msg.type != MessageType::kCandidateFilters) continue;
          Result<FilterSet> decoded = DecodeFilterSet(msg.payload);
          if (!decoded.ok()) {
            site_lost[site] = 1;
            return;
          }
          for (auto& [v, filter] : decoded.value()) {
            if (v >= n || !result.exchanged[v]) continue;  // a constant
            if (filter.bits() != options.filter_bits) {
              site_lost[site] = 1;
              return;
            }
            site_sets[site].emplace_back(v, std::move(filter));
          }
        }
      },
      options.pool);
  result.stage_millis = filt.max_millis();
  result.transport_retries = filt.total_retries();
  result.hedged_sites = filt.hedged_sites();

  // The union is only sound when every site contributed — a missing site's
  // internal candidates would turn the one-sided error into false negatives
  // — so any unrecovered site (or undecodable filter set) degrades the
  // whole exchange to "no filters".
  bool lost = !filt.complete();
  for (int site = 0; site < num_sites; ++site) {
    if (site_lost[site]) lost = true;
  }
  if (lost) {
    result.degraded = true;
    result.exchanged.assign(n, false);
    result.filters = make_filter_row();  // all placeholders now
    result.shipment_bytes = ledger.StageBytes(stage_id) - bytes_before;
    return result;
  }
  // Bitwise OR is commutative, so the site-order fold is the union any
  // arrival order would give.
  result.filters = make_filter_row();
  for (const FilterSet& set : site_sets) {
    for (const auto& [v, filter] : set) result.filters[v].UnionWith(filter);
  }
  // A saturated union would prune next to nothing, so it is withheld: the
  // variable is not exchanged and stays unfiltered, a safe superset.
  if (options.use_statistics) {
    for (QVertexId v = 0; v < n; ++v) {
      if (!result.exchanged[v]) continue;
      if (result.filters[v].FillRatio() > kMaxUnionFill) {
        result.exchanged[v] = false;
      }
    }
  }

  // Broadcast the union back (Alg. 4 line 8). Sites that miss it enumerate
  // unfiltered; the exchanged filters are an optimization, not required for
  // correctness of any single site.
  FilterSet union_set;
  for (QVertexId v = 0; v < n; ++v) {
    if (result.exchanged[v]) union_set.emplace_back(v, result.filters[v]);
  }
  if (!union_set.empty()) {
    const std::vector<uint8_t> union_payload = EncodeFilterSet(union_set);
    result.site_filter_ok = net.BroadcastReliable(
        StageOrdinal(QueryStage::kCandidateFilters), stage_id, options.policy,
        [&](int /*site*/) -> const std::vector<uint8_t>& {
          return union_payload;
        });
  }

  result.shipment_bytes = ledger.StageBytes(stage_id) - bytes_before;
  return result;
}

}  // namespace gstored
