#include "serve/plan_cache.h"

#include "plan/planner.h"

namespace gstored::serve {

void FillCachedPlan(const DistributedEngine& engine, const QueryGraph& query,
                    CachedPlan* entry) {
  // Single-filler: every concurrent first instance serializes here, and all
  // the fill work (resolution included) happens after the ready re-check, so
  // losers of the race do nothing at all.
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->ready.load(std::memory_order_acquire)) return;
  const ResolvedQuery rq =
      ResolveQueryTerms(query, engine.partitioning().dataset().dict());
  if (rq.impossible) return;
  const int num_sites = engine.num_sites();
  const bool use_statistics = engine.options().use_statistics;
  const PlanOptions& plan_options = engine.options().plan;

  QueryPlan& plan = entry->plan;
  plan.statically_impossible =
      HasImpossibleDuplicatePattern(query, rq.edge_pred);
  // The engine enumerates LPMs only for a satisfiable non-star query.
  if (!plan.statically_impossible && !query.IsStar()) {
    plan.island_tasks = EnumerateIslandTasks(query);
  }
  plan.site_match_orders.assign(num_sites, {});
  plan.site_unit_orders.assign(num_sites, {});
  for (int site = 0; site < num_sites; ++site) {
    plan.site_match_orders[site] =
        PlanSiteMatchOrder(engine.store(site), rq, use_statistics,
                           plan_options)
            .match_order;
    auto& unit_orders = plan.site_unit_orders[site];
    unit_orders.reserve(plan.island_tasks.size());
    for (const IslandTask& task : plan.island_tasks) {
      unit_orders.push_back(PlanIslandUnitOrder(engine.store(site), rq, task,
                                                use_statistics, plan_options));
    }
  }
  entry->ready.store(true, std::memory_order_release);
}

}  // namespace gstored::serve
