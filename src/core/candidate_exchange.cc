#include "core/candidate_exchange.h"

#include <algorithm>

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
  std::vector<QVertexId> variables;
  for (QVertexId v = 0; v < n; ++v) {
    result.exchanged[v] = q.vertex(v).is_variable;
    if (q.vertex(v).is_variable) variables.push_back(v);
  }
  result.site_filter_ok.assign(num_sites, false);

  // ---- Site side of Alg. 4 (lines 10-15): compute internal candidates per
  // variable and ship them as one wire message, each variable as its ids or
  // as its bit vector, whichever encodes shorter (MakeFilterEntry).
  // Constants are never shipped.
  //
  // The consumer decodes and checks each site's set into that site's slot,
  // on the thread that ran the site; the coordinator side (lines 1-8), the
  // union, runs over the slots in site order after the stage.
  auto make_filter_row = [&] {
    std::vector<BitvectorFilter> row;
    row.reserve(n);
    for (QVertexId v = 0; v < n; ++v) {
      row.emplace_back(result.exchanged[v] ? options.filter_bits : 1);
    }
    return row;
  };
  std::vector<FilterSet> site_sets(num_sites);
  std::vector<uint8_t> site_decoded(num_sites, 0);

  StageResult filt = net.StageStream(
      StageOrdinal(QueryStage::kCandidateFilters), stage_id, options.policy,
      [&](int site) {
        const Fragment& fragment = partitioning.fragments()[site];
        FilterSet set;
        std::vector<TermId> candidates;  // reused across the site's variables
        for (QVertexId v : variables) {
          // CandidatesInto returns ascending ids, so the entry's are too.
          stores[site]->CandidatesInto(rq, v, &candidates);
          std::vector<TermId> internal;
          for (TermId u : candidates) {
            if (fragment.IsInternal(u)) internal.push_back(u);
          }
          set.push_back(
              MakeFilterEntry(v, std::move(internal), options.filter_bits));
        }
        return std::vector<WireMessage>{
            MakeMessage(MessageType::kCandidateFilters, EncodeFilterSet(set))};
      },
      [&](int site, std::vector<WireMessage> msgs) {
        // The site's one filter set, naming every variable once.
        if (msgs.size() != 1 ||
            msgs[0].type != MessageType::kCandidateFilters) {
          return;
        }
        Result<FilterSet> decoded = DecodeFilterSet(msgs[0].payload, variables);
        if (!decoded.ok()) return;
        for (const FilterEntry& entry : decoded.value()) {
          if (entry.bits != options.filter_bits) return;
        }
        site_sets[site] = std::move(decoded).value();
        site_decoded[site] = 1;
      },
      options.pool);
  result.stage_millis = filt.max_millis();
  result.transport_retries = filt.total_retries();
  result.hedged_sites = filt.hedged_sites();
  for (const FilterSet& set : site_sets) {
    for (const FilterEntry& entry : set) {
      ++(entry.vector ? result.vector_entries : result.id_entries);
    }
  }

  // The union is only sound when every site contributed — a missing site's
  // internal candidates would turn the one-sided error into false negatives
  // — so any unrecovered site (its consumer never ran) or undecodable
  // filter set degrades the whole exchange to "no filters".
  if (std::count(site_decoded.begin(), site_decoded.end(), 0) > 0) {
    result.degraded = true;
    result.exchanged.assign(n, false);
    result.filters = make_filter_row();  // all placeholders now
    result.shipment_bytes = ledger.StageBytes(stage_id) - bytes_before;
    return result;
  }
  // Id entries are inserted into the same union vector that vector entries
  // OR into, so the union is the one fixed-length vectors would give, and
  // like the OR it does not depend on arrival order. While every site sent
  // v's ids, `merged[v]` collects them for the broadcast.
  result.filters = make_filter_row();
  std::vector<std::vector<TermId>> merged(n);
  std::vector<uint8_t> all_ids(n, 1);
  for (const FilterSet& set : site_sets) {
    for (const FilterEntry& entry : set) {
      BitvectorFilter& filter = result.filters[entry.var];
      if (entry.vector) {
        filter.UnionWith(*entry.vector);
        all_ids[entry.var] = 0;
        continue;
      }
      for (TermId u : entry.ids) filter.Insert(u);
      if (all_ids[entry.var]) {
        merged[entry.var].insert(merged[entry.var].end(), entry.ids.begin(),
                                 entry.ids.end());
      }
    }
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

  // Broadcast the union back (Alg. 4 line 8): as the merged ids when every
  // site sent ids and they still encode shorter, else as the vector. Sites
  // that miss it enumerate unfiltered; the exchanged filters are an
  // optimization, not required for correctness of any single site.
  FilterSet union_set;
  for (QVertexId v = 0; v < n; ++v) {
    if (!result.exchanged[v]) continue;
    std::vector<TermId>& ids = merged[v];
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    FilterEntry entry;
    entry.var = v;
    entry.bits = options.filter_bits;
    if (all_ids[v] && IdsEncodeShorter(ids.size(), options.filter_bits)) {
      entry.ids = std::move(ids);
    } else {
      entry.vector = result.filters[v];
    }
    union_set.push_back(std::move(entry));
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
