#include "core/candidate_exchange.h"

#include <algorithm>
#include <cmath>

#include "net/wire.h"
#include "store/stats.h"
#include "util/logging.h"

namespace gstored {

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
  size_t variable_count = 0;
  for (QVertexId v = 0; v < n; ++v) {
    if (q.vertex(v).is_variable) ++variable_count;
  }

  // Sites that never learn the skip decision ship every variable's vector —
  // a superset, so the union stays sound, it just costs more bytes.
  std::vector<bool> site_knows_skips(num_sites, true);

  // ---- Statistics pre-phase: per-variable candidate estimates go up, the
  // skip bitmap comes back. Variables whose global estimate is unselective
  // keep no filter (their saturated vectors would prune nothing). Estimates
  // lost to faults simply contribute zero to the sum: the skip decision gets
  // less evidence, never less soundness.
  if (options.use_statistics && variable_count > 0) {
    // Decoded estimate vectors are staged per site and summed in site index
    // order after the stage: floating-point addition is not associative, so
    // folding on arrival would let thread scheduling perturb the sums and
    // with them the skip decision, the shipped bytes and the ledger.
    std::vector<std::vector<std::vector<double>>> site_estimates(num_sites);
    StageResult est = net.StageStream(
        StageOrdinal(QueryStage::kCandidateEstimates), stage_id,
        options.policy,
        [&](int site) {
          SelectivityEstimator estimator(&stores[site]->stats(), &rq);
          std::vector<double> estimates(n, 0.0);
          for (QVertexId v = 0; v < n; ++v) {
            if (!q.vertex(v).is_variable) continue;
            estimates[v] = estimator.VertexCardinality(v);
          }
          return std::vector<WireMessage>{MakeMessage(
              MessageType::kCandidateEstimates, EncodeEstimates(estimates))};
        },
        [&](int site, std::vector<WireMessage> msgs) {
          for (const WireMessage& msg : msgs) {
            if (msg.type != MessageType::kCandidateEstimates) continue;
            Result<std::vector<double>> decoded = DecodeEstimates(msg.payload);
            if (!decoded.ok() || decoded.value().size() != n) continue;
            site_estimates[site].push_back(std::move(decoded.value()));
          }
        },
        options.pool);
    result.stage_millis += est.max_millis();
    result.transport_retries += est.total_retries();
    result.hedged_sites += est.hedged_sites();

    std::vector<double> sums(n, 0.0);
    for (int site = 0; site < num_sites; ++site) {
      if (!est.sites[site].ok) continue;
      for (const std::vector<double>& estimates : site_estimates[site]) {
        for (QVertexId v = 0; v < n; ++v) sums[v] += estimates[v];
      }
    }

    // Skip once the expected fill 1 - exp(-candidates / bits) would pass
    // max_fill, i.e. candidates > -bits * ln(1 - max_fill).
    double fill = std::clamp(options.max_fill, 0.0, 1.0 - 1e-9);
    double budget =
        -static_cast<double>(options.filter_bits) * std::log1p(-fill);
    for (QVertexId v = 0; v < n; ++v) {
      if (!q.vertex(v).is_variable) continue;
      if (sums[v] > budget) result.exchanged[v] = false;
    }

    const std::vector<uint8_t> bitmap = EncodeBitmap(result.exchanged);
    site_knows_skips = net.BroadcastReliable(
        StageOrdinal(QueryStage::kCandidateEstimates), stage_id,
        options.policy,
        [&](int /*site*/) -> const std::vector<uint8_t>& { return bitmap; });
  }

  // ---- Site side of Alg. 4 (lines 10-15): compute internal candidates per
  // exchanged variable, fold them into the site's bit vectors, and ship the
  // filter set as one wire message. Constants are never inserted or shipped.
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
          if (site_knows_skips[site] && !result.exchanged[v]) continue;
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
            if (v >= n || !result.exchanged[v]) continue;  // skipped/constant
            if (filter.bits() != options.filter_bits) {
              site_lost[site] = 1;
              return;
            }
            site_sets[site].emplace_back(v, std::move(filter));
          }
        }
      },
      options.pool);
  result.stage_millis += filt.max_millis();
  result.transport_retries += filt.total_retries();
  result.hedged_sites += filt.hedged_sites();

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
