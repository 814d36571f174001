#include "store/matcher.h"

#include <algorithm>
#include <type_traits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

/// Recursive backtracking state shared across levels. With a parallel
/// search, one context exists per worker slot: `order` and `groups` point at
/// query-static structures shared read-only by every slot, while the mutable
/// assignment state and scratch buffers below are slot-private.
struct SearchContext {
  const LocalStore* store;
  const ResolvedQuery* rq;
  const std::vector<QVertexId>* order;
  // Incident edges of each query vertex grouped by directed endpoint pair,
  // precomputed so the inner consistency check is map-free.
  const std::vector<std::vector<ParallelEdgeGroup>>* groups;
  std::vector<bool> assigned;  // indexed by query vertex
  Binding binding;             // current partial assignment
  std::vector<Binding>* results;
  // Reused buffers: one domain per recursion depth (the span returned by
  // DomainFor stays live while deeper levels run), one shared pivot list
  // (consumed before recursing).
  std::vector<std::vector<TermId>> domain_scratch;
  std::vector<PivotEdge> pivot_scratch;
};

/// True if assigning u to v is consistent with all already-assigned
/// neighbours of v (edge existence plus parallel-edge injectivity).
bool ConsistentWithAssigned(const SearchContext& ctx, QVertexId v, TermId u) {
  const RdfGraph& g = ctx.store->graph();
  auto image = [&](QVertexId w) -> TermId {
    return w == v ? u : ctx.binding[w];
  };
  for (const ParallelEdgeGroup& group : (*ctx.groups)[v]) {
    QVertexId other = group.from == v ? group.to : group.from;
    if (other != v && !ctx.assigned[other]) continue;
    if (!ParallelEdgesSatisfiable(g, *ctx.rq, group.edges, image(group.from),
                                  image(group.to))) {
      return false;
    }
  }
  return true;
}

/// Computes the candidate domain for the next query vertex `v` at recursion
/// depth `depth`: the intersection of the expansions from every assigned
/// neighbour. Allocation-free in steady state — spans come straight from the
/// graph's CSR ranges and land in the per-depth scratch buffer.
std::span<const TermId> DomainFor(SearchContext& ctx, size_t depth,
                                  QVertexId v) {
  const QueryGraph& q = *ctx.rq->query;
  const RdfGraph& g = ctx.store->graph();
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
    QVertexId other = e.from == v ? e.to : e.from;
    if (other == v || !ctx.assigned[other]) continue;
    bool v_is_subject = (e.from == v);
    ctx.pivot_scratch.push_back(
        {ctx.binding[other], ctx.rq->edge_pred[eid], v_is_subject});
  }
  if (ctx.pivot_scratch.empty()) {
    // No assigned neighbour: this is the start vertex.
    ctx.store->CandidatesInto(*ctx.rq, v, &scratch);
    return scratch;
  }
  return PivotDomain(g, ctx.pivot_scratch, &scratch);
}

void Extend(SearchContext& ctx, size_t depth) {
  if (depth == ctx.order->size()) {
    ctx.results->push_back(ctx.binding);
    return;
  }
  QVertexId v = (*ctx.order)[depth];
  for (TermId u : DomainFor(ctx, depth, v)) {
    if (!ConsistentWithAssigned(ctx, v, u)) continue;
    ctx.binding[v] = u;
    ctx.assigned[v] = true;
    Extend(ctx, depth + 1);
    ctx.assigned[v] = false;
    ctx.binding[v] = kNullTerm;
  }
}

/// A sorted candidate range: either a predicate group's half-edges (read
/// `.neighbor`) or a distinct-neighbor id range.
struct PivotRange {
  const HalfEdge* edges = nullptr;
  const TermId* ids = nullptr;
  size_t size = 0;

  TermId operator[](size_t i) const {
    return edges != nullptr ? edges[i].neighbor : ids[i];
  }
  bool Contains(TermId u) const {
    if (edges != nullptr) {
      auto it = std::lower_bound(
          edges, edges + size, u,
          [](const HalfEdge& h, TermId x) { return h.neighbor < x; });
      return it != edges + size && it->neighbor == u;
    }
    return std::binary_search(ids, ids + size, u);
  }
};

PivotRange RangeFor(const RdfGraph& g, const PivotEdge& p) {
  if (p.pred == kNullTerm) {
    auto ids = p.v_is_subject ? g.InNeighbors(p.anchor)
                              : g.OutNeighbors(p.anchor);
    return {nullptr, ids.data(), ids.size()};
  }
  auto edges = p.v_is_subject ? g.InEdges(p.anchor, p.pred)
                              : g.OutEdges(p.anchor, p.pred);
  return {edges.data(), nullptr, edges.size()};
}

}  // namespace

std::span<const TermId> PivotDomain(const RdfGraph& g,
                                    std::span<const PivotEdge> pivots,
                                    std::vector<TermId>* scratch) {
  GSTORED_CHECK(!pivots.empty());
  scratch->clear();
  // Resolve each pivot to its CSR range once. Intersecting a subset of the
  // pivots is still sound (the consistency check re-verifies every edge), so
  // a fixed-size range buffer suffices for arbitrarily large queries.
  constexpr size_t kMaxRanges = 32;
  PivotRange ranges[kMaxRanges];
  size_t num_ranges = std::min(pivots.size(), kMaxRanges);
  size_t driver_idx = 0;
  for (size_t i = 0; i < num_ranges; ++i) {
    ranges[i] = RangeFor(g, pivots[i]);
    if (ranges[i].size < ranges[driver_idx].size) driver_idx = i;
  }
  const PivotRange& driver = ranges[driver_idx];
  if (num_ranges == 1 && driver.ids != nullptr) {
    // Single wildcard pivot: the distinct-neighbor span is the domain.
    return {driver.ids, driver.size};
  }
  for (size_t i = 0; i < driver.size; ++i) {
    TermId u = driver[i];
    bool keep = true;
    for (size_t j = 0; j < num_ranges; ++j) {
      if (j != driver_idx && !ranges[j].Contains(u)) {
        keep = false;
        break;
      }
    }
    if (keep) scratch->push_back(u);
  }
  return *scratch;
}

std::vector<std::vector<ParallelEdgeGroup>> BuildIncidentEdgeGroups(
    const QueryGraph& q, const std::function<bool(QEdgeId)>& keep) {
  std::vector<std::vector<ParallelEdgeGroup>> groups(q.num_vertices());
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    for (QEdgeId eid : q.IncidentEdges(v)) {
      if (keep && !keep(eid)) continue;
      const QueryEdge& e = q.edge(eid);
      auto it = std::find_if(groups[v].begin(), groups[v].end(),
                             [&](const ParallelEdgeGroup& pg) {
                               return pg.from == e.from && pg.to == e.to;
                             });
      if (it == groups[v].end()) {
        groups[v].push_back({e.from, e.to, {eid}});
      } else {
        it->edges.push_back(eid);
      }
    }
  }
  return groups;
}

bool ParallelEdgesSatisfiable(const RdfGraph& graph, const ResolvedQuery& rq,
                              const std::vector<QEdgeId>& group, TermId a,
                              TermId b) {
  // The labels on data edges a -> b, as a contiguous predicate-sorted range
  // with no duplicates (the graph stores deduplicated triples).
  std::span<const HalfEdge> labels = graph.EdgeLabels(a, b);
  if (labels.empty()) return false;

  auto has_label = [&](TermId p) {
    auto it = std::lower_bound(
        labels.begin(), labels.end(), p,
        [](const HalfEdge& h, TermId x) { return h.predicate < x; });
    return it != labels.end() && it->predicate == p;
  };

  if (group.size() == 1) {
    // The common case: one edge between the pair — injectivity is trivial.
    TermId pred = rq.edge_pred[group[0]];
    return pred == kNullTerm || has_label(pred);
  }

  std::vector<TermId> constants;
  size_t variable_count = 0;
  for (QEdgeId eid : group) {
    TermId pred = rq.edge_pred[eid];
    if (pred == kNullTerm) {
      ++variable_count;
    } else {
      constants.push_back(pred);
    }
  }
  std::sort(constants.begin(), constants.end());
  // Duplicate constant labels can never map injectively into a label set.
  if (std::adjacent_find(constants.begin(), constants.end()) !=
      constants.end()) {
    return false;
  }
  for (TermId c : constants) {
    if (!has_label(c)) return false;
  }
  return variable_count + constants.size() <= labels.size();
}

bool VerifyMatch(const RdfGraph& graph, const ResolvedQuery& rq,
                 const Binding& binding) {
  const QueryGraph& q = *rq.query;
  if (binding.size() != q.num_vertices()) return false;
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    if (binding[v] == kNullTerm) return false;
    TermId constant = rq.vertex_term[v];
    if (constant != kNullTerm && binding[v] != constant) return false;
  }
  // Group parallel edges by directed pair and check label injectivity. A
  // group is stored at both endpoints; processing it only at its `from`
  // vertex covers each pair exactly once (self-loops included).
  auto groups = BuildIncidentEdgeGroups(q);
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    for (const ParallelEdgeGroup& group : groups[v]) {
      if (group.from != v) continue;
      if (!ParallelEdgesSatisfiable(graph, rq, group.edges,
                                    binding[group.from], binding[group.to])) {
        return false;
      }
    }
  }
  return true;
}

std::vector<QVertexId> MatchingOrderGreedy(const LocalStore& store,
                                           const ResolvedQuery& rq) {
  const QueryGraph& q = *rq.query;
  size_t n = q.num_vertices();
  std::vector<QVertexId> order;
  std::vector<bool> placed(n, false);

  // Each vertex's estimate is query-static; compute it once, not once per
  // greedy round. The fan-out estimate breaks candidate-count ties: between
  // two equally selective vertices, prefer the one the search reaches
  // through a lower average (predicate, direction) expansion.
  std::vector<size_t> est(n);
  std::vector<double> fanout(n);
  for (QVertexId v = 0; v < n; ++v) {
    est[v] = store.EstimateCandidates(rq, v);
    fanout[v] = store.EstimateExpansionFanout(rq, v);
  }
  auto better = [&](QVertexId a, QVertexId b) {
    if (est[a] != est[b]) return est[a] < est[b];
    return fanout[a] < fanout[b];
  };

  // Start at the most selective vertex.
  QVertexId start = 0;
  for (QVertexId v = 1; v < n; ++v) {
    if (better(v, start)) start = v;
  }
  order.push_back(start);
  placed[start] = true;

  while (order.size() < n) {
    QVertexId next = static_cast<QVertexId>(-1);
    for (QVertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      bool adjacent = false;
      for (QVertexId nb : q.Neighbors(v)) {
        if (placed[nb]) {
          adjacent = true;
          break;
        }
      }
      if (!adjacent) continue;
      if (next == static_cast<QVertexId>(-1) || better(v, next)) next = v;
    }
    // The paper assumes connected queries; a disconnected vertex would never
    // become adjacent, which is a caller error.
    GSTORED_CHECK_MSG(next != static_cast<QVertexId>(-1),
                      "query graph must be connected");
    order.push_back(next);
    placed[next] = true;
  }
  return order;
}

std::vector<QVertexId> MatchingOrder(const LocalStore& store,
                                     const ResolvedQuery& rq,
                                     bool use_statistics) {
  if (!use_statistics) return MatchingOrderGreedy(store, rq);
  const QueryGraph& q = *rq.query;
  size_t n = q.num_vertices();
  SelectivityEstimator estimator(&store.stats(), &rq);

  std::vector<double> card(n);
  for (QVertexId v = 0; v < n; ++v) card[v] = estimator.VertexCardinality(v);

  // One greedy order per candidate start vertex: from a fixed start, append
  // the adjacent vertex whose expected per-row expansion is smallest. The
  // running product of those fan-outs estimates each prefix's intermediate-
  // result size; the order's cost is their sum — the number of partial
  // assignments the backtracking search is expected to touch. The cheapest
  // start wins (a small candidate set is worthless when every expansion out
  // of it explodes, so the start choice must price the whole prefix).
  std::vector<QVertexId> best_order;
  double best_cost = 0.0;
  std::vector<QVertexId> order;
  std::vector<bool> placed(n, false);
  for (QVertexId start = 0; start < n; ++start) {
    order.clear();
    placed.assign(n, false);
    order.push_back(start);
    placed[start] = true;
    double rows = card[start];
    double total = rows;
    while (order.size() < n) {
      double next_ext = 0.0;
      QVertexId next = estimator.PickCheapestExtension(
          placed, nullptr, nullptr, start, &next_ext);
      GSTORED_CHECK_MSG(next != SelectivityEstimator::kNoVertex,
                        "query graph must be connected");
      order.push_back(next);
      placed[next] = true;
      rows *= next_ext;
      total += rows;
    }
    if (best_order.empty() || total < best_cost) {
      best_order = order;
      best_cost = total;
    }
  }
  return best_order;
}

size_t CountIntermediateResults(const LocalStore& store,
                                const ResolvedQuery& rq,
                                std::span<const QVertexId> order) {
  if (rq.impossible || order.empty()) return 0;
  const std::vector<QVertexId> order_vec(order.begin(), order.end());
  const std::vector<std::vector<ParallelEdgeGroup>> groups =
      BuildIncidentEdgeGroups(*rq.query);

  SearchContext ctx;
  ctx.store = &store;
  ctx.rq = &rq;
  ctx.order = &order_vec;
  ctx.groups = &groups;
  ctx.assigned.assign(rq.query->num_vertices(), false);
  ctx.binding.assign(rq.query->num_vertices(), kNullTerm);
  ctx.results = nullptr;
  ctx.domain_scratch.resize(order.size());

  size_t nodes = 0;
  auto count = [&](auto&& self, size_t depth) -> void {
    if (depth == order.size()) return;
    QVertexId v = order[depth];
    for (TermId u : DomainFor(ctx, depth, v)) {
      if (!ConsistentWithAssigned(ctx, v, u)) continue;
      ++nodes;
      ctx.binding[v] = u;
      ctx.assigned[v] = true;
      self(self, depth + 1);
      ctx.assigned[v] = false;
      ctx.binding[v] = kNullTerm;
    }
  };
  count(count, 0);
  return nodes;
}

std::vector<Binding> MatchQuery(const LocalStore& store,
                                const ResolvedQuery& rq,
                                const MatchOptions& options) {
  if (rq.impossible || rq.query->num_vertices() == 0) return {};

  const size_t n = rq.query->num_vertices();
  std::vector<QVertexId> scored_order;
  if (options.precomputed_order == nullptr) {
    scored_order = MatchingOrder(store, rq, options.use_statistics);
  }
  const std::vector<QVertexId>& order = options.precomputed_order != nullptr
                                            ? *options.precomputed_order
                                            : scored_order;
  const std::vector<std::vector<ParallelEdgeGroup>> groups =
      BuildIncidentEdgeGroups(*rq.query);

  auto make_context = [&] {
    SearchContext ctx;
    ctx.store = &store;
    ctx.rq = &rq;
    ctx.order = &order;
    ctx.groups = &groups;
    ctx.assigned.assign(n, false);
    ctx.binding.assign(n, kNullTerm);
    ctx.results = nullptr;
    ctx.domain_scratch.resize(order.size());
    return ctx;
  };

  // One private SearchContext per worker slot, at most one per start
  // candidate. The search is partitioned across the start vertex's
  // candidate domain, computed in slot 0's depth-0 scratch, which no deeper
  // level touches. Growing `contexts` may move slot 0, but a moved context
  // keeps its scratch buffers, so the span stays valid. Each candidate's
  // subtree writes to its own result vector, concatenated in candidate
  // order, so the output is byte-identical for every slot count.
  static_assert(std::is_nothrow_move_constructible_v<SearchContext>);
  std::vector<SearchContext> contexts;
  contexts.push_back(make_context());
  const QVertexId v0 = order[0];
  const std::span<const TermId> start_domain = DomainFor(contexts[0], 0, v0);
  const size_t slots = std::clamp<size_t>(
      start_domain.size(), 1, std::max<size_t>(1, options.num_threads));
  while (contexts.size() < slots) contexts.push_back(make_context());
  return ParallelForConcat<Binding>(
      options.pool, start_domain.size(), slots,
      [&](size_t i, size_t slot, std::vector<Binding>* out) {
        SearchContext& ctx = contexts[slot];
        TermId u = start_domain[i];
        ctx.results = out;
        if (!ConsistentWithAssigned(ctx, v0, u)) return;
        ctx.binding[v0] = u;
        ctx.assigned[v0] = true;
        Extend(ctx, 1);
        ctx.assigned[v0] = false;
        ctx.binding[v0] = kNullTerm;
      });
}

}  // namespace gstored
