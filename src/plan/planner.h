#ifndef GSTORED_PLAN_PLANNER_H_
#define GSTORED_PLAN_PLANNER_H_

#include <functional>
#include <span>
#include <vector>

#include "core/local_partial_match.h"
#include "store/local_store.h"
#include "store/matcher.h"

namespace gstored {

/// Which plan enumerator scores matching and unit orders.
///  * kDp     — dynamic programming over connected subgraphs of the query
///              (DPccp-style: connected subsets plus linearized connected-
///              complement combinations, cheapest entry per subset), costed
///              by the SelectivityEstimator. Queries above 10 vertices and
///              islands outside 3..10 vertices fall back to kGreedy.
///  * kGreedy — the PR-3 path verbatim: MatchingOrder (one greedy order per
///              candidate start) and BuildIslandUnitOrder. The large-query
///              fallback and the ordering ablation's baseline.
enum class PlanEnumerator { kDp, kGreedy };

/// Plan-enumerator setting, carried by EngineOptions::plan.
struct PlanOptions {
  PlanEnumerator enumerator = PlanEnumerator::kDp;
};

/// One site's planned matching order plus its estimated cost — the running
/// intermediate-result size along the order (EstimateOrderCost), which the
/// benchmark compares against the actual search-tree nodes.
struct SitePlan {
  std::vector<QVertexId> match_order;
  double cost = 0.0;
};

/// Estimated search-tree size of running `order` over one store: the running
/// intermediate-result cardinality along the prefix, accumulated, with the
/// store's SelectivityEstimator pricing each extension (conditioned on
/// order[0], whose candidate domain pre-enforces its incident constraints).
/// Edges rejected by `relevant` (when set) are ignored — the LPM unit
/// metric. This is the single metric every enumerator's orders are selected
/// and compared under (the DP recurrence accumulates it incrementally, so a
/// DP entry's cost equals this function's replay of its order exactly).
double EstimateOrderCost(const LocalStore& store, const ResolvedQuery& rq,
                         std::span<const QVertexId> order,
                         const std::function<bool(QEdgeId)>& relevant = nullptr);

/// Plans one site's matching order. Dispatch: `use_statistics == false`
/// degrades to MatchingOrderGreedy (the pre-statistics ablation baseline);
/// kGreedy, queries above the DP's 10-vertex gate and disconnected queries
/// take the cost greedy MatchingOrder; every other query returns the DP
/// enumerator's order, even where its estimate is above greedy's. The
/// returned cost is EstimateOrderCost of the returned order either way.
/// Orders change enumeration cost and emission order only, never the match
/// set (final matches are sorted + deduplicated downstream).
SitePlan PlanSiteMatchOrder(const LocalStore& store, const ResolvedQuery& rq,
                            bool use_statistics,
                            const PlanOptions& options = {});

/// Plans one island task's unit order (island vertices first, each adjacent
/// to a placed island vertex; then the boundary). Same dispatch as
/// PlanSiteMatchOrder for islands of 3..10 vertices, with the DP restricted
/// to the island's subgraph (relevant-edge semantics of
/// BuildIslandUnitOrder) and the boundary appended by the shared
/// cheapest-extension step. Units whose greedy order is estimated below 256
/// search-tree nodes keep that order without running the DP.
std::vector<QVertexId> PlanIslandUnitOrder(const LocalStore& store,
                                           const ResolvedQuery& rq,
                                           const IslandTask& task,
                                           bool use_statistics,
                                           const PlanOptions& options = {});

}  // namespace gstored

#endif  // GSTORED_PLAN_PLANNER_H_
