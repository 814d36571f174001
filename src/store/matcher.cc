#include "store/matcher.h"

#include <algorithm>
#include <type_traits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

/// The admissibility test of complete matching: every domain candidate is
/// tried, and the consistency check alone filters it.
constexpr auto kAnyCandidate = [](QVertexId, TermId) { return true; };

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
  NeighbourRange ranges[kMaxRanges];
  size_t num_ranges = std::min(pivots.size(), kMaxRanges);
  size_t driver_idx = 0;
  for (size_t i = 0; i < num_ranges; ++i) {
    const PivotEdge& p = pivots[i];
    ranges[i] = NeighboursOf(g, p.anchor, p.pred, p.v_is_subject);
    if (ranges[i].size < ranges[driver_idx].size) driver_idx = i;
  }
  const NeighbourRange& driver = ranges[driver_idx];
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

BacktrackSearch::BacktrackSearch(
    const LocalStore& store, const ResolvedQuery& rq,
    std::span<const QVertexId> order,
    const std::vector<std::vector<ParallelEdgeGroup>>& groups,
    const std::vector<bool>* relevant)
    : store_(&store),
      rq_(&rq),
      order_(order),
      groups_(&groups),
      relevant_(relevant),
      assigned_(rq.query->num_vertices(), false),
      binding_(rq.query->num_vertices(), kNullTerm),
      domain_scratch_(order.size()) {}

std::span<const TermId> BacktrackSearch::Domain(size_t depth) {
  const QueryGraph& q = *rq_->query;
  const RdfGraph& g = store_->graph();
  const QVertexId v = order_[depth];
  std::vector<TermId>& scratch = domain_scratch_[depth];
  scratch.clear();

  TermId constant = rq_->vertex_term[v];
  if (constant != kNullTerm) {
    if (g.HasVertex(constant)) scratch.push_back(constant);
    return scratch;
  }

  pivot_scratch_.clear();
  for (QEdgeId eid : q.IncidentEdges(v)) {
    if (relevant_ != nullptr && !(*relevant_)[eid]) continue;
    const QueryEdge& e = q.edge(eid);
    QVertexId other = e.from == v ? e.to : e.from;
    if (other == v || !assigned_[other]) continue;
    bool v_is_subject = (e.from == v);
    pivot_scratch_.push_back(
        {binding_[other], rq_->edge_pred[eid], v_is_subject});
  }
  if (pivot_scratch_.empty()) {
    scanned_ += store_->CandidatesInto(*rq_, v, &scratch);
    return scratch;
  }
  return PivotDomain(g, pivot_scratch_, &scratch);
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
  const std::vector<std::vector<ParallelEdgeGroup>> groups =
      BuildIncidentEdgeGroups(*rq.query);
  BacktrackSearch search(store, rq, order, groups);
  search.Extend(0, kAnyCandidate, [](const Binding&) {});
  return search.nodes();
}

std::vector<Binding> MatchQuery(const LocalStore& store,
                                const ResolvedQuery& rq,
                                const MatchOptions& options) {
  if (rq.impossible || rq.query->num_vertices() == 0) return {};

  std::vector<QVertexId> scored_order;
  if (options.precomputed_order == nullptr) {
    scored_order = MatchingOrder(store, rq, options.use_statistics);
  }
  const std::vector<QVertexId>& order = options.precomputed_order != nullptr
                                            ? *options.precomputed_order
                                            : scored_order;
  const std::vector<std::vector<ParallelEdgeGroup>> groups =
      BuildIncidentEdgeGroups(*rq.query);

  // One private search per worker slot, at most one per start candidate.
  // The search is partitioned across the start vertex's candidate domain,
  // computed in slot 0's depth-0 scratch, which no deeper level touches.
  // Growing `searches` may move slot 0, but a moved search keeps its
  // scratch buffers, so the span stays valid. Each candidate's subtree
  // writes to its own result vector, concatenated in candidate order, so
  // the output is byte-identical for every slot count.
  static_assert(std::is_nothrow_move_constructible_v<BacktrackSearch>);
  std::vector<BacktrackSearch> searches;
  searches.emplace_back(store, rq, order, groups);
  const std::span<const TermId> start_domain = searches[0].Domain(0);
  const size_t slots = std::clamp<size_t>(
      start_domain.size(), 1, std::max<size_t>(1, options.num_threads));
  while (searches.size() < slots) {
    searches.emplace_back(store, rq, order, groups);
  }
  return ParallelForConcat<Binding>(
      options.pool, start_domain.size(), slots,
      [&](size_t i, size_t slot, std::vector<Binding>* out) {
        searches[slot].Visit(0, start_domain[i], kAnyCandidate,
                             [out](const Binding& b) { out->push_back(b); });
      });
}

}  // namespace gstored
