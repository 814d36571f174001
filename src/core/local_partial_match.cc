#include "core/local_partial_match.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

bool InMask(uint32_t mask, QVertexId v) { return ((mask >> v) & 1u) != 0; }

/// An edge participates in the partial match iff at least one endpoint is in
/// the island (condition 5); edges between two boundary vertices stay
/// unmatched (condition 3's "both extended" escape).
bool TouchesIsland(const QueryEdge& e, uint32_t island) {
  return InMask(island, e.from) || InMask(island, e.to);
}

/// True when the vertices of `mask` are weakly connected within the query
/// graph using only mask vertices (Def. 5 condition 6).
bool MaskConnected(const QueryGraph& q, uint32_t mask) {
  if (mask == 0) return false;
  uint32_t start_bit = mask & (~mask + 1);
  QVertexId start = static_cast<QVertexId>(__builtin_ctz(start_bit));
  uint32_t seen = start_bit;
  std::vector<QVertexId> stack = {start};
  while (!stack.empty()) {
    QVertexId v = stack.back();
    stack.pop_back();
    for (QVertexId nb : q.Neighbors(v)) {
      uint32_t bit = uint32_t{1} << nb;
      if ((mask & bit) && !(seen & bit)) {
        seen |= bit;
        stack.push_back(nb);
      }
    }
  }
  return seen == mask;
}

/// Appends the partial match that `binding` forms with island `island`:
/// the sign is the island.
void EmitMatch(const Fragment& fragment, const QueryGraph& q, uint32_t island,
               const Binding& binding, std::vector<LocalPartialMatch>* out) {
  LocalPartialMatch pm{fragment.id(), binding, island,
                       CrossingMappings(q, island, binding)};
  // Condition 4: at least one crossing edge.
  GSTORED_CHECK(!pm.crossing.empty());
  out->push_back(std::move(pm));
}

/// Builds the search order for one island mask: island vertices in a
/// BFS-through-island order (so each has an assigned island pivot), then the
/// boundary vertices (each adjacent to the island by construction).
std::vector<QVertexId> BuildOrderBfs(const QueryGraph& q, uint32_t island_mask,
                                     uint32_t boundary_mask) {
  std::vector<QVertexId> order;
  uint32_t start_bit = island_mask & (~island_mask + 1);
  QVertexId start = static_cast<QVertexId>(__builtin_ctz(start_bit));
  uint32_t placed = 0;
  order.push_back(start);
  placed |= uint32_t{1} << start;
  for (size_t i = 0; i < order.size(); ++i) {
    for (QVertexId nb : q.Neighbors(order[i])) {
      uint32_t bit = uint32_t{1} << nb;
      if ((island_mask & bit) && !(placed & bit)) {
        placed |= bit;
        order.push_back(nb);
      }
    }
  }
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    if (boundary_mask & (uint32_t{1} << v)) order.push_back(v);
  }
  return order;
}

/// Statistics-driven unit order: the cheapest-cardinality island vertex
/// first, then greedily the adjacent island vertex with the smallest
/// estimated per-row expansion (same cost model as MatchingOrder, restricted
/// to relevant edges), then the boundary vertices, likewise cheapest
/// estimated expansion first. Connectivity invariants match the BFS order:
/// every island vertex after the first is adjacent to a placed island
/// vertex, every boundary vertex to the island.
std::vector<QVertexId> BuildOrderByCost(
    const QueryGraph& q, uint32_t island_mask, uint32_t boundary_mask,
    const SelectivityEstimator& estimator,
    const std::function<bool(QEdgeId)>& relevant) {
  const size_t n = q.num_vertices();
  std::vector<QVertexId> order;
  std::vector<bool> placed(n, false);

  QVertexId start = static_cast<QVertexId>(-1);
  double start_card = 0.0;
  for (QVertexId v = 0; v < n; ++v) {
    if (!InMask(island_mask, v)) continue;
    double card = estimator.VertexCardinality(v);
    if (start == static_cast<QVertexId>(-1) || card < start_card) {
      start = v;
      start_card = card;
    }
  }
  order.push_back(start);
  placed[start] = true;

  auto append_greedy = [&](uint32_t mask) {
    size_t remaining = 0;
    for (QVertexId v = 0; v < n; ++v) {
      if (InMask(mask, v) && !placed[v]) ++remaining;
    }
    while (remaining > 0) {
      QVertexId next = estimator.PickCheapestExtension(
          placed, [&](QVertexId v) { return InMask(mask, v); }, relevant,
          start);
      GSTORED_CHECK(next != SelectivityEstimator::kNoVertex);
      order.push_back(next);
      placed[next] = true;
      --remaining;
    }
  };
  // The island is connected through its own edges (MaskConnected) and every
  // boundary vertex touches the island, so both phases always find an
  // adjacent next vertex.
  append_greedy(island_mask);
  append_greedy(boundary_mask);
  return order;
}

/// Runs the backtracking search of one island task, appending its matches
/// to `out`. Self-contained (all mutable state is local), so distinct tasks
/// can run concurrently as long as each gets its own `out`.
/// `precomputed_order` (may be null) replays a plan-cache order instead of
/// computing one.
void SearchIslandMask(const Fragment& fragment, const LocalStore& store,
                      const ResolvedQuery& rq, const EnumerateOptions& options,
                      const IslandTask& task,
                      const std::vector<QVertexId>* precomputed_order,
                      std::vector<LocalPartialMatch>* out) {
  const QueryGraph& q = *rq.query;
  std::vector<QVertexId> own_order;
  if (precomputed_order == nullptr) {
    own_order = options.unit_order_fn
                    ? options.unit_order_fn(task)
                    : BuildIslandUnitOrder(store, rq, task,
                                           options.use_statistics);
  }
  const std::vector<QVertexId>& order =
      precomputed_order != nullptr ? *precomputed_order : own_order;
  // Only an island vertex may seed from the store's candidates; every later
  // vertex of a valid unit order has an assigned neighbour to expand from.
  GSTORED_CHECK(!order.empty() && InMask(task.island, order[0]));

  std::vector<bool> relevant(q.num_edges());
  for (QEdgeId eid = 0; eid < q.num_edges(); ++eid) {
    relevant[eid] = TouchesIsland(q.edge(eid), task.island);
  }
  const std::vector<std::vector<ParallelEdgeGroup>> groups =
      BuildIncidentEdgeGroups(q, [&](QEdgeId eid) { return relevant[eid]; });

  // Island vertices map to internal vertices; boundary vertices to
  // extended ones that pass Algorithm 4's filter.
  const auto admissible = [&](QVertexId v, TermId u) {
    if (InMask(task.island, v)) return fragment.IsInternal(u);
    if (!fragment.IsExtended(u)) return false;
    return !options.extended_filter || options.extended_filter(v, u);
  };
  BacktrackSearch search(store, rq, order, groups, &relevant);
  search.Extend(0, admissible, [&](const Binding& binding) {
    EmitMatch(fragment, q, task.island, binding, out);
  });
}

}  // namespace

std::string SignToString(LecSign sign, size_t n) {
  std::string out = "[";
  for (size_t v = 0; v < n; ++v) out.push_back(InMask(sign, v) ? '1' : '0');
  return out + "]";
}

std::vector<CrossingPairMap> CrossingMappings(const QueryGraph& q,
                                              LecSign sign,
                                              const Binding& binding) {
  std::vector<CrossingPairMap> crossing;
  for (const QueryEdge& e : q.edges()) {
    // An edge with both or neither endpoint in the sign is internal or
    // unmatched.
    if (InMask(sign, e.from) == InMask(sign, e.to)) continue;
    crossing.push_back({e.from, e.to, binding[e.from], binding[e.to]});
  }
  std::sort(crossing.begin(), crossing.end());
  crossing.erase(std::unique(crossing.begin(), crossing.end()),
                 crossing.end());
  return crossing;
}

std::string LocalPartialMatch::ToString(const TermDict& dict) const {
  std::string out = "[";
  for (size_t v = 0; v < binding.size(); ++v) {
    if (v > 0) out += ",";
    out += binding[v] == kNullTerm ? "NULL" : dict.lexical(binding[v]);
  }
  out += "]";
  return out;
}

std::vector<IslandTask> EnumerateIslandTasks(const QueryGraph& q) {
  const size_t n = q.num_vertices();
  GSTORED_CHECK_MSG(n >= 1 && n <= kMaxEnumerableVertices,
                    "query size outside the supported vertex range");
  std::vector<IslandTask> tasks;
  for (uint32_t island_mask = 1; island_mask < (uint32_t{1} << n);
       ++island_mask) {
    if (!MaskConnected(q, island_mask)) continue;

    uint32_t boundary_mask = 0;
    for (QVertexId v = 0; v < n; ++v) {
      if (!(island_mask & (uint32_t{1} << v))) continue;
      for (QVertexId nb : q.Neighbors(v)) {
        uint32_t bit = uint32_t{1} << nb;
        if (!(island_mask & bit)) boundary_mask |= bit;
      }
    }
    // An island covering a whole connected component has no crossing edge
    // and is a complete local match, not a partial one (condition 4).
    if (boundary_mask == 0) continue;
    tasks.push_back({island_mask, boundary_mask});
  }
  return tasks;
}

std::vector<QVertexId> BuildIslandUnitOrder(const LocalStore& store,
                                            const ResolvedQuery& rq,
                                            const IslandTask& task,
                                            bool use_statistics) {
  const QueryGraph& q = *rq.query;
  if (!use_statistics) {
    return BuildOrderBfs(q, task.island, task.boundary);
  }
  SelectivityEstimator estimator(&store.stats(), &rq);
  return BuildOrderByCost(q, task.island, task.boundary, estimator,
                          [&](QEdgeId eid) {
                            return TouchesIsland(q.edge(eid), task.island);
                          });
}

std::vector<LocalPartialMatch> EnumerateLocalPartialMatches(
    const Fragment& fragment, const LocalStore& store, const ResolvedQuery& rq,
    const EnumerateOptions& options) {
  if (rq.impossible) return {};
  const QueryGraph& q = *rq.query;

  // Each (island, boundary) mask pair's search is independent of the others.
  // A plan cache can supply the task list (and per-task orders) computed for
  // another instance of the template; otherwise enumerate the masks here.
  std::vector<IslandTask> own_tasks;
  if (options.tasks == nullptr) own_tasks = EnumerateIslandTasks(q);
  const std::vector<IslandTask>& tasks =
      options.tasks != nullptr ? *options.tasks : own_tasks;
  const std::vector<std::vector<QVertexId>>* unit_orders = options.unit_orders;
  GSTORED_CHECK(unit_orders == nullptr || unit_orders->size() == tasks.size());
  auto order_for = [&](size_t i) -> const std::vector<QVertexId>* {
    return unit_orders != nullptr ? &(*unit_orders)[i] : nullptr;
  };

  // Island masks are embarrassingly parallel: one private result vector per
  // mask, concatenated in ascending mask order, so the output is
  // byte-identical for every slot count.
  return ParallelForConcat<LocalPartialMatch>(
      options.pool, tasks.size(), options.num_threads,
      [&](size_t i, size_t /*slot*/, std::vector<LocalPartialMatch>* out) {
        SearchIslandMask(fragment, store, rq, options, tasks[i], order_for(i),
                         out);
      });
}

}  // namespace gstored
