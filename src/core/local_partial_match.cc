#include "core/local_partial_match.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

/// Backtracking state for one island mask.
struct IslandSearch {
  const Fragment* fragment;
  const LocalStore* store;
  const ResolvedQuery* rq;
  const EnumerateOptions* options;
  uint32_t island_mask;
  std::vector<QVertexId> order;  // island vertices first, then boundary
  size_t island_count;
  std::vector<bool> in_island;
  std::vector<bool> in_matched;
  std::vector<bool> assigned;
  Binding binding;
  std::vector<LocalPartialMatch>* out;
  // Relevant incident edges grouped by directed endpoint pair, precomputed
  // per island mask so the inner consistency check is map-free.
  std::vector<std::vector<ParallelEdgeGroup>> groups;
  // Reused buffers (see matcher.cc's SearchContext).
  std::vector<std::vector<TermId>> domain_scratch;
  std::vector<PivotEdge> pivot_scratch;
};

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

/// An edge participates in the partial match iff at least one endpoint is in
/// the island (condition 5); edges between two boundary vertices stay
/// unmatched (condition 3's "both extended" escape).
bool EdgeRelevant(const IslandSearch& ctx, const QueryEdge& e) {
  return ctx.in_island[e.from] || ctx.in_island[e.to];
}

bool ConsistentWithAssigned(const IslandSearch& ctx, QVertexId v, TermId u) {
  auto image = [&](QVertexId w) -> TermId {
    return w == v ? u : ctx.binding[w];
  };
  for (const ParallelEdgeGroup& group : ctx.groups[v]) {
    QVertexId other = group.from == v ? group.to : group.from;
    if (other != v && !ctx.assigned[other]) continue;
    if (!ParallelEdgesSatisfiable(ctx.store->graph(), *ctx.rq, group.edges,
                                  image(group.from), image(group.to))) {
      return false;
    }
  }
  return true;
}

/// Fragment- and filter-level admissibility of assigning u to v, applied
/// while iterating the domain span (the constant check is handled by
/// DomainFor).
bool Admissible(const IslandSearch& ctx, QVertexId v, TermId u) {
  if (ctx.in_island[v]) {
    return ctx.fragment->IsInternal(u);
  }
  if (!ctx.fragment->IsExtended(u)) return false;
  return !ctx.options->extended_filter || ctx.options->extended_filter(v, u);
}

/// Candidate domain for the vertex at `depth` in the search order: the
/// intersection of the expansions from every assigned neighbour through
/// relevant edges, straight from the graph's CSR ranges (see matcher.cc).
std::span<const TermId> DomainFor(IslandSearch& ctx, size_t depth) {
  const QueryGraph& q = *ctx.rq->query;
  const RdfGraph& g = ctx.store->graph();
  QVertexId v = ctx.order[depth];
  std::vector<TermId>& scratch = ctx.domain_scratch[depth];
  scratch.clear();

  TermId constant = ctx.rq->vertex_term[v];
  if (constant != kNullTerm) {
    if (g.HasVertex(constant)) scratch.push_back(constant);
    return scratch;
  }

  ctx.pivot_scratch.clear();
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    if (!EdgeRelevant(ctx, e)) continue;
    QVertexId other = e.from == v ? e.to : e.from;
    if (other == v || !ctx.assigned[other]) continue;
    bool v_is_subject = (e.from == v);
    ctx.pivot_scratch.push_back(
        {ctx.binding[other], ctx.rq->edge_pred[eid], v_is_subject});
  }

  if (ctx.pivot_scratch.empty()) {
    // First vertex of the island: seed from the store's candidates.
    GSTORED_CHECK(ctx.in_island[v]);
    ctx.store->CandidatesInto(*ctx.rq, v, &scratch);
    return scratch;
  }
  return PivotDomain(g, ctx.pivot_scratch, &scratch);
}

void EmitMatch(IslandSearch& ctx) {
  const QueryGraph& q = *ctx.rq->query;
  LocalPartialMatch pm;
  pm.fragment = ctx.fragment->id();
  pm.binding = ctx.binding;
  pm.sign = Bitset(q.num_vertices());
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    if (ctx.in_island[v]) pm.sign.Set(v);
  }
  for (const QueryEdge& e : q.edges()) {
    bool from_island = ctx.in_island[e.from];
    bool to_island = ctx.in_island[e.to];
    if (from_island == to_island) continue;  // internal or unmatched edge
    pm.crossing.push_back({e.from, e.to, ctx.binding[e.from],
                           ctx.binding[e.to]});
  }
  std::sort(pm.crossing.begin(), pm.crossing.end());
  pm.crossing.erase(std::unique(pm.crossing.begin(), pm.crossing.end()),
                    pm.crossing.end());
  // Condition 4: at least one crossing edge.
  GSTORED_CHECK(!pm.crossing.empty());
  ctx.out->push_back(std::move(pm));
}

void Extend(IslandSearch& ctx, size_t depth) {
  if (depth == ctx.order.size()) {
    EmitMatch(ctx);
    return;
  }
  QVertexId v = ctx.order[depth];
  for (TermId u : DomainFor(ctx, depth)) {
    if (!Admissible(ctx, v, u)) continue;
    if (!ConsistentWithAssigned(ctx, v, u)) continue;
    ctx.binding[v] = u;
    ctx.assigned[v] = true;
    Extend(ctx, depth + 1);
    ctx.assigned[v] = false;
    ctx.binding[v] = kNullTerm;
  }
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

  auto in_mask = [](uint32_t mask, QVertexId v) {
    return (mask & (uint32_t{1} << v)) != 0;
  };

  QVertexId start = static_cast<QVertexId>(-1);
  double start_card = 0.0;
  for (QVertexId v = 0; v < n; ++v) {
    if (!in_mask(island_mask, v)) continue;
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
      if (in_mask(mask, v) && !placed[v]) ++remaining;
    }
    while (remaining > 0) {
      QVertexId next = estimator.PickCheapestExtension(
          placed, [&](QVertexId v) { return in_mask(mask, v); }, relevant,
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

/// Runs the backtracking search of one island mask, appending its matches to
/// `out`. Self-contained (all mutable state is local), so distinct masks can
/// run concurrently as long as each gets its own `out`. `precomputed_order`
/// (may be null) replays a plan-cache order instead of scoring one.
void SearchIslandMask(const Fragment& fragment, const LocalStore& store,
                      const ResolvedQuery& rq, const EnumerateOptions& options,
                      uint32_t island_mask, uint32_t boundary_mask,
                      const std::vector<QVertexId>* precomputed_order,
                      std::vector<LocalPartialMatch>* out) {
  const QueryGraph& q = *rq.query;
  const size_t n = q.num_vertices();
  IslandSearch ctx;
  ctx.fragment = &fragment;
  ctx.store = &store;
  ctx.rq = &rq;
  ctx.options = &options;
  ctx.island_mask = island_mask;
  ctx.in_island.assign(n, false);
  ctx.in_matched.assign(n, false);
  for (QVertexId v = 0; v < n; ++v) {
    uint32_t bit = uint32_t{1} << v;
    ctx.in_island[v] = (island_mask & bit) != 0;
    ctx.in_matched[v] = ((island_mask | boundary_mask) & bit) != 0;
  }
  if (precomputed_order != nullptr) {
    ctx.order = *precomputed_order;
  } else {
    if (options.order_scorings != nullptr) {
      options.order_scorings->fetch_add(1, std::memory_order_relaxed);
    }
    const IslandTask task{island_mask, boundary_mask};
    ctx.order = options.unit_order_fn
                    ? options.unit_order_fn(task)
                    : BuildIslandUnitOrder(store, rq, task,
                                           options.use_statistics);
  }
  ctx.island_count = static_cast<size_t>(__builtin_popcount(island_mask));
  ctx.assigned.assign(n, false);
  ctx.binding.assign(n, kNullTerm);
  ctx.out = out;
  ctx.groups = BuildIncidentEdgeGroups(q, [&](QEdgeId eid) {
    return EdgeRelevant(ctx, q.edge(eid));
  });
  ctx.domain_scratch.resize(ctx.order.size());
  Extend(ctx, 0);
}

}  // namespace

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
  std::vector<bool> in_island(q.num_vertices(), false);
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    in_island[v] = (task.island & (uint32_t{1} << v)) != 0;
  }
  SelectivityEstimator estimator(&store.stats(), &rq);
  return BuildOrderByCost(q, task.island, task.boundary, estimator,
                          [&](QEdgeId eid) {
                            const QueryEdge& e = q.edge(eid);
                            return in_island[e.from] || in_island[e.to];
                          });
}

std::vector<LocalPartialMatch> EnumerateLocalPartialMatches(
    const Fragment& fragment, const LocalStore& store, const ResolvedQuery& rq,
    const EnumerateOptions& options) {
  if (rq.impossible) return {};
  const QueryGraph& q = *rq.query;

  // Each (island, boundary) mask pair's search is independent of the others.
  // A plan cache can supply the task list (and per-task orders) computed for
  // an isomorphic template; otherwise enumerate the masks here.
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
        SearchIslandMask(fragment, store, rq, options, tasks[i].island,
                         tasks[i].boundary, order_for(i), out);
      });
}

}  // namespace gstored
