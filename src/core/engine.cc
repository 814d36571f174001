#include "core/engine.h"

#include <algorithm>
#include <atomic>

#include "core/group_schedule.h"
#include "core/lec_feature.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace gstored {

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kBasic: return "gStoreD-Basic";
    case EngineMode::kLecAssembly: return "gStoreD-LA";
    case EngineMode::kLecPruning: return "gStoreD-LO";
    case EngineMode::kFull: return "gStoreD";
  }
  return "unknown";
}

void DedupBindings(std::vector<Binding>* bindings) {
  std::sort(bindings->begin(), bindings->end());
  bindings->erase(std::unique(bindings->begin(), bindings->end()),
                  bindings->end());
}

DistributedEngine::DistributedEngine(const Partitioning* partitioning,
                                     EngineOptions options)
    : partitioning_(partitioning), options_(std::move(options)) {
  GSTORED_CHECK(partitioning != nullptr);
  stores_.reserve(partitioning_->num_fragments());
  for (const Fragment& fragment : partitioning_->fragments()) {
    stores_.push_back(std::make_unique<LocalStore>(&fragment.graph()));
  }
}

namespace {

/// LPMs per kLpmBatch wire message in stage D, so drop/duplicate faults hit
/// individual batches instead of a site's whole shipment.
constexpr size_t kLpmBatchSize = 256;

/// Per-site computation cache: the transport runs each site function at
/// most once per stage, but stages B, C and D all read the same matches,
/// LPMs and features, so each site computes them once per query. Each entry
/// is touched only by the thread running its site in the current stage,
/// and stages run one after another.
struct SiteCache {
  bool computed = false;
  std::vector<Binding> matches;
  std::vector<LocalPartialMatch> lpms;
  bool features_computed = false;
  LecFeatureSet features;  ///< over this site's own LPMs
};

void FoldSiteReport(const SiteStageReport& stage, SiteReport* site) {
  site->crashed = site->crashed || stage.crashed;
  site->hedged = site->hedged || stage.hedged;
  site->max_attempts = std::max(site->max_attempts, stage.attempts);
}

}  // namespace

QueryOutcome DistributedEngine::Run(const QueryRequest& request) const {
  GSTORED_CHECK(request.query != nullptr);
  if (request.context != nullptr) {
    return RunInternal(request, *request.context);
  }
  QuerySession session(num_sites(), options_.fault_plan, 0);
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  return RunInternal(request, ctx);
}

QueryOutcome DistributedEngine::RunInternal(const QueryRequest& request,
                                            QueryContext& ctx) const {
  GSTORED_CHECK(ctx.ledger != nullptr && ctx.transport != nullptr);
  const QueryGraph& query = *request.query;
  const EngineMode mode = request.mode;

  QueryOutcome outcome;
  QueryStats* stats = &outcome.stats;
  stats->selective = query.HasSelectiveTriple();
  const QueryPlan* plan = ctx.plan;
  stats->plan_cache_hit = plan != nullptr;

  Stopwatch total_watch;
  const size_t num_sites = partitioning_->num_fragments();
  const size_t n = query.num_vertices();

  // Constant resolution always runs per instance (it depends on the
  // bindings); the shape-level duplicate-pattern verdict comes from the
  // plan cache when available.
  ResolvedQuery rq =
      ResolveQueryTerms(query, partitioning_->dataset().dict());
  if (!rq.impossible) {
    const bool dup_impossible =
        plan != nullptr ? plan->statically_impossible
                        : HasImpossibleDuplicatePattern(query, rq.edge_pred);
    if (dup_impossible) rq.impossible = true;
  }

  const bool star = query.IsStar();
  stats->star_shortcut = star;

  outcome.sites.assign(num_sites, SiteReport{});

  InProcessTransport& net = *ctx.transport;
  ShipmentLedger& ledger = *ctx.ledger;
  ThreadPool* pool = options_.pool;
  const size_t num_threads =
      ctx.num_threads != 0 ? ctx.num_threads : options_.num_threads;
  const StagePolicy policy = options_.MakeStagePolicy();
  const ShipmentLedger::StageId lec_stage_id = ledger.Intern(kLecFeatureStage);
  const ShipmentLedger::StageId lpm_stage_id = ledger.Intern(kLpmShipmentStage);

  std::vector<Binding> matches;

  // The context's cancellation/deadline is polled between stages only: an
  // abort returns the matches accumulated so far — always a sound subset,
  // because every stage's output is either complete local matches or
  // inputs to assembly — flagged non-exact, with the session ledger intact.
  auto finish_aborted = [&]() {
    stats->cancelled = true;
    outcome.exact = false;
    stats->exact = false;
    stats->num_matches = matches.size();
    stats->order_scorings =
        ctx.order_scorings.load(std::memory_order_relaxed);
    stats->total_time_ms = total_watch.ElapsedMillis();
    outcome.matches = std::move(matches);
    return outcome;
  };
  if (ctx.aborted(total_watch.ElapsedMillis())) return finish_aborted();

  // ---- Stage A (kFull, non-star): assemble variables' internal candidates.
  CandidateExchange exchange;
  bool use_filter = false;
  if (!star && mode == EngineMode::kFull) {
    std::vector<const LocalStore*> store_ptrs;
    store_ptrs.reserve(num_sites);
    for (const auto& s : stores_) store_ptrs.push_back(s.get());
    CandidateExchangeOptions exchange_options;
    exchange_options.use_statistics = options_.use_statistics;
    exchange_options.policy = policy;
    exchange_options.pool = pool;
    exchange = ExchangeInternalCandidates(*partitioning_, store_ptrs, rq, net,
                                          ledger, exchange_options);
    stats->candidate_time_ms = exchange.stage_millis;
    stats->candidate_shipment_bytes = exchange.shipment_bytes;
    stats->exchange_degraded = exchange.degraded;
    stats->transport_retries += exchange.transport_retries;
    stats->hedged_sites += exchange.hedged_sites;
    // A degraded exchange cleared `exchanged`, so probing it is already a
    // no-op; skip the closure entirely to keep enumeration cheap.
    use_filter = !exchange.degraded;
  }
  if (ctx.aborted(total_watch.ElapsedMillis())) return finish_aborted();

  // ---- Stage B: partial evaluation. Every site computes its complete local
  // matches; non-star queries additionally enumerate local partial matches
  // and fold them into LEC features (Alg. 1 runs on the fly per site). Only
  // the complete matches (plus the LPM count for the stats tables) ship
  // now; LPMs stay on their site until stage D. Result traffic is not part
  // of the paper's data-shipment metric, hence kUnaccounted.
  std::vector<SiteCache> cache(num_sites);

  MatchOptions match_options;
  match_options.num_threads = num_threads;
  match_options.pool = pool;
  match_options.use_statistics = options_.use_statistics;

  EnumerateOptions enum_options;
  enum_options.num_threads = num_threads;
  enum_options.pool = pool;
  enum_options.use_statistics = options_.use_statistics;
  if (plan != nullptr) enum_options.tasks = &plan->island_tasks;

  // Per-site slots for orders planned inside ensure_partial_eval (pre-sized:
  // concurrent site calls each write their own slot, and the MatchOptions
  // pointer into a slot must stay stable for the call's duration).
  std::vector<std::vector<QVertexId>> planned_match_orders(num_sites);

  auto ensure_partial_eval = [&](int site) {
    SiteCache& c = cache[site];
    if (c.computed) return;
    const Fragment& fragment = partitioning_->fragments()[site];
    MatchOptions site_match = match_options;
    if (plan != nullptr) {
      site_match.precomputed_order = &plan->site_match_orders[site];
    } else if (!rq.impossible && n > 0) {
      // No plan-cache order: plan the site's matching order here (the
      // src/plan/ planner — DP when in range, the cost greedy otherwise)
      // instead of inside MatchQuery, so the slot budget below can see the
      // chosen start vertex. This is the site's one order-scoring pass.
      SitePlan sp = PlanSiteMatchOrder(*stores_[site], rq,
                                       options_.use_statistics, options_.plan);
      ctx.order_scorings.fetch_add(1, std::memory_order_relaxed);
      planned_match_orders[site] = std::move(sp.match_order);
      site_match.precomputed_order = &planned_match_orders[site];
    }
    // Per-site thread budget: scale the engine knob to the fragment's size
    // so small sites skip pool coordination entirely (the site-side answer
    // to the dynamic-thread-budget item; assembly and pruning apply the
    // seed-group-sized equivalent via JoinSlotBudget), and cap it by the
    // start vertex's estimated candidate domain — the parallel matcher
    // partitions across that domain, so a selective start can never feed
    // more slots than it has candidates.
    size_t site_slots;
    if (!rq.impossible && site_match.precomputed_order != nullptr &&
        !site_match.precomputed_order->empty()) {
      site_slots = SiteSlotBudget(
          fragment.graph().num_triples(), num_threads,
          stores_[site]->EstimateCandidates(
              rq, site_match.precomputed_order->front()));
    } else {
      site_slots =
          SiteSlotBudget(fragment.graph().num_triples(), num_threads);
    }
    site_match.num_threads = site_slots;
    EnumerateOptions site_enum = enum_options;
    site_enum.num_threads = site_slots;
    if (plan != nullptr) {
      site_enum.unit_orders = &plan->site_unit_orders[site];
    } else {
      // No plan-cache unit orders: let the enumerator consult the planner
      // per island task (thread-safe — each call builds its own estimator).
      // Each call is one order-scoring pass.
      site_enum.unit_order_fn = [this, site, &rq,
                                 &ctx](const IslandTask& task) {
        ctx.order_scorings.fetch_add(1, std::memory_order_relaxed);
        return PlanIslandUnitOrder(*stores_[site], rq, task,
                                   options_.use_statistics, options_.plan);
      };
    }
    if (use_filter && exchange.site_filter_ok[site]) {
      // Read-only probes of the exchanged bit vectors — safe to call from
      // the intra-site worker slots. Variables whose union was withheld
      // are not exchanged and pass everything; a site that missed the union
      // broadcast enumerates unfiltered (a safe superset — filters only
      // ever prune).
      site_enum.extended_filter = [&](QVertexId v, TermId u) {
        if (!query.vertex(v).is_variable) return true;
        if (!exchange.exchanged[v]) return true;
        return exchange.filters[v].MayContain(u);
      };
    }
    c.matches = MatchQuery(*stores_[site], rq, site_match);
    if (!star) {
      c.lpms = EnumerateLocalPartialMatches(fragment, *stores_[site], rq,
                                            site_enum);
    }
    c.computed = true;
  };

  // Per-site staging slot for stage B: the consumer decodes each site's
  // batches into that site's slot the moment the site lands, on the
  // thread that ran it, while other sites are still enumerating; the slots
  // are merged in site order after the stage returns — so the merged
  // matches do not depend on arrival order.
  struct SiteStageB {
    std::vector<Binding> matches;
    size_t num_lpms = 0;
    bool decode_ok = true;
  };
  std::vector<SiteStageB> stage_b(num_sites);

  StageResult peval = net.StageStream(
      StageOrdinal(QueryStage::kPartialEval), ShipmentLedger::kUnaccounted,
      policy,
      [&](int site) {
        ensure_partial_eval(site);
        const SiteCache& c = cache[site];
        return std::vector<WireMessage>{MakeMessage(
            MessageType::kMatchBatch,
            EncodeMatchBatch(c.lpms.size(), static_cast<uint32_t>(n),
                             c.matches))};
      },
      [&](int site, std::vector<WireMessage> msgs) {
        SiteStageB& sb = stage_b[site];
        for (const WireMessage& msg : msgs) {
          if (msg.type != MessageType::kMatchBatch) continue;
          Result<MatchBatch> batch = DecodeMatchBatch(msg.payload);
          if (!batch.ok() || batch.value().width != n) {
            sb.decode_ok = false;
            break;
          }
          sb.num_lpms += batch.value().num_lpms;
          sb.matches.insert(sb.matches.end(), batch.value().matches.begin(),
                            batch.value().matches.end());
        }
      },
      pool);
  stats->partial_eval_time_ms = peval.max_millis();
  stats->partial_eval_sites = peval.sites;
  stats->transport_retries += peval.total_retries();
  stats->hedged_sites += peval.hedged_sites();

  for (size_t site = 0; site < num_sites; ++site) {
    SiteReport& report = outcome.sites[site];
    FoldSiteReport(peval.sites[site], &report);
    if (!peval.sites[site].ok) {
      report.partial_eval_complete = false;
      continue;
    }
    SiteStageB& sb = stage_b[site];
    // A torn batch flags the site incomplete but keeps the batches decoded
    // before it — a sound subset.
    if (!sb.decode_ok) report.partial_eval_complete = false;
    stats->num_lpms += sb.num_lpms;
    matches.insert(matches.end(),
                   std::make_move_iterator(sb.matches.begin()),
                   std::make_move_iterator(sb.matches.end()));
    sb.matches.clear();
  }
  DedupBindings(&matches);
  stats->num_local_matches = matches.size();

  auto finalize_counters = [&] {
    stats->order_scorings =
        ctx.order_scorings.load(std::memory_order_relaxed);
  };

  if (star) {
    for (const SiteReport& r : outcome.sites) {
      if (!r.complete()) outcome.exact = false;
    }
    stats->num_matches = matches.size();
    stats->exact = outcome.exact;
    finalize_counters();
    stats->total_time_ms = total_watch.ElapsedMillis();
    outcome.matches = std::move(matches);
    return outcome;
  }
  if (ctx.aborted(total_watch.ElapsedMillis())) return finish_aborted();

  auto ensure_features = [&](int site) {
    ensure_partial_eval(site);
    SiteCache& c = cache[site];
    if (!c.features_computed) {
      c.features = ComputeLecFeatures(c.lpms);
      c.features_computed = true;
    }
  };

  // ---- Stage C (kLecPruning and up): ship LEC features, prune globally.
  // The sites' feature sets are concatenated in site order, so the pruning
  // input — and therefore the surviving LPM set — does not depend on the
  // order in which sites arrive.
  bool prune_active = false;
  std::vector<std::vector<bool>> site_survivors(num_sites);
  std::vector<bool> survivors_delivered(num_sites, false);
  if (mode == EngineMode::kLecPruning || mode == EngineMode::kFull) {
    // Per-site staging for the feature batches, each decoded on its site's
    // thread and concatenated in site order below.
    struct SiteStageC {
      std::vector<LecFeature> features;
      bool decode_ok = true;
    };
    std::vector<SiteStageC> stage_c(num_sites);

    StageResult feat = net.StageStream(
        StageOrdinal(QueryStage::kLecFeatures), lec_stage_id, policy,
        [&](int site) {
          ensure_features(site);
          return std::vector<WireMessage>{
              MakeMessage(MessageType::kLecFeatureBatch,
                          EncodeLecFeatureBatch(cache[site].features.features))};
        },
        [&](int site, std::vector<WireMessage> msgs) {
          SiteStageC& sc = stage_c[site];
          for (const WireMessage& msg : msgs) {
            if (msg.type != MessageType::kLecFeatureBatch) continue;
            Result<std::vector<LecFeature>> decoded =
                DecodeLecFeatureBatch(msg.payload);
            if (!decoded.ok()) {
              sc.decode_ok = false;
              break;
            }
            sc.features.insert(sc.features.end(),
                               std::make_move_iterator(decoded.value().begin()),
                               std::make_move_iterator(decoded.value().end()));
          }
        },
        pool);
    stats->transport_retries += feat.total_retries();
    stats->hedged_sites += feat.hedged_sites();

    // Pruning is an optimization, never a correctness requirement — but it
    // is only *sound* on a feature set that covers every site whose LPMs
    // will arrive in stage D. A crashed site's features may be missing (its
    // LPMs are equally gone), but losing an alive site's features forces us
    // to skip pruning entirely: pruning against an incomplete feature set
    // would discard LPMs whose only join partners were in the lost batch.
    std::vector<std::vector<LecFeature>> site_features(num_sites);
    bool features_lost = false;
    for (size_t site = 0; site < num_sites; ++site) {
      FoldSiteReport(feat.sites[site], &outcome.sites[site]);
      if (!feat.sites[site].ok) {
        if (!feat.sites[site].crashed) features_lost = true;
        continue;
      }
      if (!stage_c[site].decode_ok) features_lost = true;
      site_features[site] = std::move(stage_c[site].features);
    }
    stats->pruning_degraded = features_lost;

    if (!features_lost) {
      Stopwatch prune_watch;
      std::vector<LecFeature> all_features;
      std::vector<size_t> offsets(num_sites, 0);
      for (size_t site = 0; site < num_sites; ++site) {
        offsets[site] = all_features.size();
        all_features.insert(all_features.end(),
                            std::make_move_iterator(site_features[site].begin()),
                            std::make_move_iterator(site_features[site].end()));
      }
      stats->num_features = all_features.size();

      // The pruning join borrows the same shared pool as assembly below;
      // the sites are done with it (the stage has returned), so the
      // coordinator gets the full budget.
      PruneOptions prune_options;
      prune_options.num_threads = num_threads;
      prune_options.pool = pool;
      PruneResult prune =
          LecFeaturePruning(all_features, n, prune_options);
      stats->num_surviving_features = prune.surviving_features;
      stats->prune_bailed_out = prune.bailed_out;

      for (size_t site = 0; site < num_sites; ++site) {
        size_t count = site + 1 < num_sites ? offsets[site + 1] - offsets[site]
                                            : all_features.size() - offsets[site];
        site_survivors[site].assign(
            prune.survives.begin() + offsets[site],
            prune.survives.begin() + offsets[site] + count);
      }
      prune_active = true;

      // Broadcast each site its survivor bitmap, encoded once per site. A
      // site that misses it ships all of its LPMs — a superset, so the
      // final result is still exact, only the shipment grows.
      std::vector<std::vector<uint8_t>> survivor_bitmaps(num_sites);
      for (size_t site = 0; site < num_sites; ++site) {
        survivor_bitmaps[site] = EncodeBitmap(site_survivors[site]);
      }
      survivors_delivered = net.BroadcastReliable(
          StageOrdinal(QueryStage::kLecFeatures), lec_stage_id, policy,
          [&](int site) -> const std::vector<uint8_t>& {
            return survivor_bitmaps[site];
          });
      stats->lec_prune_time_ms = feat.max_millis() + prune_watch.ElapsedMillis();
    } else {
      stats->lec_prune_time_ms = feat.max_millis();
    }
  }
  if (ctx.aborted(total_watch.ElapsedMillis())) return finish_aborted();

  // ---- Stage D: ship the surviving LPMs to the coordinator in fixed-size
  // batches and assemble. Survivor filtering keeps each site's enumeration
  // order and sites are concatenated in site order, so the assembly input
  // does not depend on the order in which sites arrive.

  // Assembly-input staging: each site's LPM batches are decoded into its
  // slot, on its own thread, while slower sites are still filtering and
  // shipping; the site-order concatenation below makes `surviving`
  // independent of arrival order.
  struct SiteStageD {
    std::vector<LocalPartialMatch> lpms;
    bool decode_ok = true;
  };
  std::vector<SiteStageD> stage_d(num_sites);

  StageResult ship = net.StageStream(
      StageOrdinal(QueryStage::kLpmShipment), lpm_stage_id, policy,
      [&](int site) {
        ensure_partial_eval(site);
        const SiteCache& c = cache[site];
        std::vector<LocalPartialMatch> to_ship;
        if (prune_active && survivors_delivered[site]) {
          ensure_features(site);
          const std::vector<size_t>& feature_of =
              cache[site].features.feature_of_lpm;
          to_ship.reserve(c.lpms.size());
          for (size_t i = 0; i < c.lpms.size(); ++i) {
            if (feature_of[i] < site_survivors[site].size() &&
                site_survivors[site][feature_of[i]]) {
              to_ship.push_back(c.lpms[i]);
            }
          }
        } else {
          to_ship = c.lpms;
        }
        std::vector<WireMessage> msgs;
        for (size_t first = 0; first < to_ship.size(); first += kLpmBatchSize) {
          size_t count = std::min(kLpmBatchSize, to_ship.size() - first);
          msgs.push_back(MakeMessage(MessageType::kLpmBatch,
                                     EncodeLpmBatch(to_ship, first, count)));
        }
        return msgs;
      },
      [&](int site, std::vector<WireMessage> msgs) {
        SiteStageD& sd = stage_d[site];
        for (const WireMessage& msg : msgs) {
          if (msg.type != MessageType::kLpmBatch) continue;
          Result<std::vector<LocalPartialMatch>> decoded =
              DecodeLpmBatch(msg.payload);
          if (!decoded.ok()) {
            sd.decode_ok = false;
            break;
          }
          sd.lpms.insert(sd.lpms.end(),
                         std::make_move_iterator(decoded.value().begin()),
                         std::make_move_iterator(decoded.value().end()));
        }
      },
      pool);
  stats->transport_retries += ship.total_retries();
  stats->hedged_sites += ship.hedged_sites();

  std::vector<LocalPartialMatch> surviving;
  for (size_t site = 0; site < num_sites; ++site) {
    SiteReport& report = outcome.sites[site];
    FoldSiteReport(ship.sites[site], &report);
    if (!ship.sites[site].ok) {
      report.lpms_complete = false;
      continue;
    }
    SiteStageD& sd = stage_d[site];
    if (!sd.decode_ok) report.lpms_complete = false;
    surviving.insert(surviving.end(),
                     std::make_move_iterator(sd.lpms.begin()),
                     std::make_move_iterator(sd.lpms.end()));
    sd.lpms.clear();
  }
  stats->num_lpms_shipped = surviving.size();
  stats->lec_shipment_bytes = ledger.StageBytes(lec_stage_id);
  stats->lpm_shipment_bytes = ledger.StageBytes(lpm_stage_id);
  if (ctx.aborted(total_watch.ElapsedMillis())) return finish_aborted();

  // LEC assembly joins on the same worker pool the sites run on; the sites
  // are done with it by now (the stage has returned), so the coordinator
  // gets the full budget. The basic worklist join stays serial
  // — it is the ablation baseline, not a production path.
  Stopwatch assembly_watch;
  AssemblyOptions assembly_options;
  assembly_options.num_threads = num_threads;
  assembly_options.pool = pool;
  std::vector<Binding> crossing =
      mode == EngineMode::kBasic
          ? BasicAssembly(surviving, n, &stats->assembly)
          : LecAssembly(surviving, n, assembly_options, &stats->assembly);
  stats->num_crossing_matches = crossing.size();
  stats->assembly_time_ms = assembly_watch.ElapsedMillis();

  matches.insert(matches.end(), crossing.begin(), crossing.end());
  DedupBindings(&matches);
  stats->num_matches = matches.size();

  for (const SiteReport& r : outcome.sites) {
    if (!r.complete()) outcome.exact = false;
  }
  stats->exact = outcome.exact;
  finalize_counters();
  stats->total_time_ms = total_watch.ElapsedMillis();
  outcome.matches = std::move(matches);
  return outcome;
}

}  // namespace gstored
