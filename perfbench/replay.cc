#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "core/assembly.h"
#include "core/candidate_exchange.h"
#include "core/group_schedule.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "core/query_context.h"
#include "plan/planner.h"
#include "sparql/parser.h"
#include "store/matcher.h"
#include "util/logging.h"

namespace perfbench {

using gstored::Binding;
using gstored::QVertexId;
using gstored::TermId;

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t SpanLog::Begin(const char* name, int32_t parent, int32_t site,
                       uint32_t query) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.site = site;
  span.query = query;
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanLog::End(int32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  return span.millis();
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanLog::Truncate(size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size < spans_.size()) spans_.erase(spans_.begin() + size, spans_.end());
}

bool SpanLog::WriteJsonLines(
    const std::string& path,
    const std::vector<std::string>& query_names) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* query =
        s.query < query_names.size() ? query_names[s.query].c_str() : "";
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"site\":%d,"
                 "\"query\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.parent, s.name, s.site, query,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

ReplayResult ReplayQuery(const gstored::DistributedEngine& engine,
                         const std::string& sparql,
                         const gstored::FaultPlan& fault_plan,
                         uint32_t session_id, uint32_t query_id,
                         SpanLog* log) {
  ReplayResult r;
  const gstored::Partitioning& partitioning = engine.partitioning();
  const gstored::EngineOptions& options = engine.options();
  const int num_sites = engine.num_sites();
  const size_t num_threads = options.num_threads;
  auto begin = [&](const char* name, int32_t parent, int32_t site = -1) {
    return log->Begin(name, parent, site, query_id);
  };

  const int32_t root = begin("query", -1);

  int32_t span = begin("sparql.parse", root);
  gstored::Result<gstored::QueryGraph> parsed = gstored::ParseSparql(sparql);
  r.parse_us = log->End(span) * 1e3;
  GSTORED_CHECK_MSG(parsed.ok(), parsed.status().ToString());
  const gstored::QueryGraph& query = parsed.value();

  span = begin("sparql.resolve", root);
  const gstored::ResolvedQuery rq =
      gstored::ResolveQuery(query, partitioning.dataset().dict());
  r.resolve_us = log->End(span) * 1e3;

  const bool star = query.IsStar();
  const size_t n = query.num_vertices();
  std::vector<const gstored::LocalStore*> stores;
  for (int s = 0; s < num_sites; ++s) stores.push_back(&engine.store(s));

  // Alg. 4 over the transport, with the workload's fault plan.
  gstored::CandidateExchange exchange;
  bool use_filter = false;
  if (!star) {
    gstored::QuerySession session(num_sites, fault_plan, session_id);
    gstored::CandidateExchangeOptions exchange_options;
    exchange_options.use_statistics = options.use_statistics;
    exchange_options.policy = options.MakeStagePolicy();
    span = begin("core.exchange", root);
    exchange = gstored::ExchangeInternalCandidates(
        partitioning, stores, rq, session.transport, session.ledger,
        exchange_options);
    r.exchange_ms = log->End(span);
    use_filter = !exchange.degraded;
    r.exchange_bytes = exchange.shipment_bytes;
    for (QVertexId v = 0; v < n; ++v) {
      if (!query.vertex(v).is_variable) continue;
      ++r.exchange_variables;
      if (!exchange.exchanged[v]) ++r.exchange_skipped;
    }
  }

  // Partial evaluation, one site after another.
  std::vector<Binding> matches;
  std::vector<std::vector<gstored::LocalPartialMatch>> site_lpms(num_sites);
  double site_path_ms = 0.0;
  for (int site = 0; site < num_sites; ++site) {
    const gstored::LocalStore& store = engine.store(site);
    const gstored::Fragment& fragment = partitioning.fragments()[site];
    gstored::MatchOptions match_options;
    match_options.pool = options.pool;
    match_options.use_statistics = options.use_statistics;
    std::vector<QVertexId> order;
    double plan_ms = 0.0;
    if (!rq.impossible && n > 0) {
      span = begin("plan.site_order", root, site);
      order = gstored::PlanSiteMatchOrder(store, rq, options.use_statistics,
                                          options.plan)
                  .match_order;
      plan_ms = log->End(span);
      match_options.precomputed_order = &order;
    }
    const size_t triples = fragment.graph().num_triples();
    const size_t slots =
        order.empty()
            ? gstored::SiteSlotBudget(triples, num_threads)
            : gstored::SiteSlotBudget(
                  triples, num_threads,
                  store.EstimateCandidates(rq, order.front()));
    match_options.num_threads = slots;

    span = begin("store.match", root, site);
    std::vector<Binding> local = gstored::MatchQuery(store, rq, match_options);
    const double match_ms = log->End(span);
    matches.insert(matches.end(), local.begin(), local.end());

    double enum_ms = 0.0;
    std::atomic<int64_t> unit_plan_ns{0};
    if (!star) {
      const int32_t enum_span = begin("core.lpm_enum", root, site);
      gstored::EnumerateOptions enum_options;
      enum_options.num_threads = slots;
      enum_options.pool = options.pool;
      enum_options.use_statistics = options.use_statistics;
      enum_options.unit_order_fn = [&, site,
                                    enum_span](const gstored::IslandTask& t) {
        const int32_t id = begin("plan.unit_order", enum_span, site);
        std::vector<QVertexId> unit = gstored::PlanIslandUnitOrder(
            store, rq, t, options.use_statistics, options.plan);
        unit_plan_ns.fetch_add(static_cast<int64_t>(log->End(id) * 1e6));
        return unit;
      };
      if (use_filter && exchange.site_filter_ok[site]) {
        enum_options.extended_filter = [&](QVertexId v, TermId u) {
          if (!query.vertex(v).is_variable) return true;
          if (!exchange.exchanged[v]) return true;
          return exchange.filters[v].MayContain(u);
        };
      }
      site_lpms[site] = gstored::EnumerateLocalPartialMatches(
          fragment, store, rq, enum_options);
      enum_ms = log->End(enum_span);
      r.lpms += site_lpms[site].size();
    }
    const double unit_ms = static_cast<double>(unit_plan_ns.load()) / 1e6;
    r.plan_ms = std::max(r.plan_ms, plan_ms + unit_ms);
    r.match_ms = std::max(r.match_ms, match_ms);
    r.lpm_enum_ms = std::max(r.lpm_enum_ms, enum_ms - unit_ms);
    site_path_ms = std::max(site_path_ms, plan_ms + match_ms + enum_ms);
  }

  span = begin("core.dedup", root);
  gstored::DedupBindings(&matches);
  r.dedup_ms = log->End(span);

  double features_path_ms = 0.0;
  if (!star) {
    // Alg. 1 per site, then Alg. 2 over the site-ordered concatenation.
    std::vector<gstored::LecFeatureSet> site_features(num_sites);
    std::vector<gstored::LecFeature> all_features;
    std::vector<size_t> offsets(num_sites, 0);
    for (int site = 0; site < num_sites; ++site) {
      span = begin("core.features", root, site);
      site_features[site] = gstored::ComputeLecFeatures(site_lpms[site]);
      features_path_ms = std::max(features_path_ms, log->End(span));
      offsets[site] = all_features.size();
      all_features.insert(all_features.end(),
                          site_features[site].features.begin(),
                          site_features[site].features.end());
    }
    r.features_ms = features_path_ms;
    r.features = all_features.size();

    gstored::PruneOptions prune_options;
    prune_options.num_threads = num_threads;
    prune_options.pool = options.pool;
    span = begin("core.prune", root);
    gstored::PruneResult prune =
        gstored::LecFeaturePruning(all_features, n, prune_options);
    r.prune_ms = log->End(span);
    r.surviving_features = prune.surviving_features;
    r.prune_join_attempts = prune.join_attempts;

    std::vector<gstored::LocalPartialMatch> surviving;
    for (int site = 0; site < num_sites; ++site) {
      const std::vector<size_t>& feature_of =
          site_features[site].feature_of_lpm;
      for (size_t i = 0; i < site_lpms[site].size(); ++i) {
        if (prune.survives[offsets[site] + feature_of[i]]) {
          surviving.push_back(std::move(site_lpms[site][i]));
        }
      }
    }

    gstored::AssemblyOptions assembly_options;
    assembly_options.num_threads = num_threads;
    assembly_options.pool = options.pool;
    gstored::AssemblyStats assembly_stats;
    span = begin("core.assembly", root);
    std::vector<Binding> crossing = gstored::LecAssembly(
        surviving, n, assembly_options, &assembly_stats);
    r.assembly_ms = log->End(span);
    r.assembly_join_attempts = assembly_stats.join_attempts;
    r.crossing_matches = crossing.size();

    matches.insert(matches.end(), crossing.begin(), crossing.end());
    span = begin("core.dedup", root);
    gstored::DedupBindings(&matches);
    r.dedup_ms += log->End(span);
  }

  r.wall_ms = log->End(root);
  r.critical_path_ms = r.parse_us / 1e3 + r.resolve_us / 1e3 +
                       r.exchange_ms + site_path_ms + features_path_ms +
                       r.prune_ms + r.assembly_ms + r.dedup_ms;
  r.matches = std::move(matches);
  return r;
}

PlanQuality MeasurePlanQuality(const gstored::DistributedEngine& engine,
                               const gstored::QueryGraph& query) {
  PlanQuality quality;
  const gstored::ResolvedQuery rq = gstored::ResolveQuery(
      query, engine.partitioning().dataset().dict());
  if (rq.impossible || query.num_vertices() == 0) return quality;
  for (int site = 0; site < engine.num_sites(); ++site) {
    const gstored::LocalStore& store = engine.store(site);
    gstored::SitePlan plan = gstored::PlanSiteMatchOrder(
        store, rq, engine.options().use_statistics, engine.options().plan);
    const double actual = static_cast<double>(
        gstored::CountIntermediateResults(store, rq, plan.match_order));
    quality.match_nodes += actual;
    const double est = std::max(plan.cost, 1.0);
    const double act = std::max(actual, 1.0);
    quality.log_q_error += std::abs(std::log(est / act));
    ++quality.planned_sites;
  }
  return quality;
}

}  // namespace perfbench
