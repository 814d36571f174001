#ifndef GSTORED_STORE_MATCHER_H_
#define GSTORED_STORE_MATCHER_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "store/local_store.h"

namespace gstored {

class ThreadPool;

/// A total assignment of graph vertices to query vertices: binding[v] is the
/// image f(v) of query vertex v (Def. 3). Never contains kNullTerm.
using Binding = std::vector<TermId>;

/// Options for MatchQuery.
struct MatchOptions {
  /// Maximum worker slots for the search, which is always partitioned
  /// across the start vertex's candidates: each slot owns its own scratch
  /// state and per-candidate result vectors are concatenated in candidate
  /// order, so the output is byte-identical for every slot count. One slot
  /// runs the candidates inline on the caller.
  size_t num_threads = 1;

  /// Pool supplying the extra slots; nullptr = ThreadPool::Shared(). The
  /// calling thread always participates, so a pool busy with other sites
  /// degrades throughput, never correctness.
  ThreadPool* pool = nullptr;

  /// Order the search by the statistics cost model (estimated intermediate-
  /// result sizes from the store's GraphStatistics). false falls back to the
  /// greedy candidate-count heuristic. The match set is identical either
  /// way; only enumeration cost and result order change.
  bool use_statistics = true;

  /// Precomputed vertex elimination order; when set MatchQuery skips
  /// MatchingOrder/SelectivityEstimator scoring entirely. The engine always
  /// sets it, from the src/plan/ planner or a plan-cache hit. Must be a
  /// permutation of the query's vertices starting a connected expansion —
  /// i.e. a previous PlanSiteMatchOrder or MatchingOrder result for an
  /// isomorphic template. Final match sets are sorted + deduplicated
  /// downstream, so a heuristic order from a differently-bound instance is
  /// safe to reuse.
  const std::vector<QVertexId>* precomputed_order = nullptr;
};

/// Finds all homomorphic matches (Def. 3) of the resolved query over the
/// store's graph, including the injective multi-edge label condition for
/// parallel triple patterns. Matches are returned as full bindings.
///
/// This is both the centralized oracle (run on the whole graph) and the
/// per-site "complete local match" evaluator (run on a fragment's graph).
std::vector<Binding> MatchQuery(const LocalStore& store,
                                const ResolvedQuery& rq,
                                const MatchOptions& options = {});

/// Checks Def. 3's injective edge-label condition for the group of parallel
/// query edges `group` (all with f(from)=a, f(to)=b): the constant labels
/// must be distinct and present on data edges a->b, with enough remaining
/// distinct data labels for the variable-predicate patterns. Called by
/// BacktrackSearch's consistency check, VerifyMatch and unit tests.
bool ParallelEdgesSatisfiable(const RdfGraph& graph,
                              const ResolvedQuery& rq,
                              const std::vector<QEdgeId>& group, TermId a,
                              TermId b);

/// One pivot constraint for the next query vertex's domain: its image must
/// be reachable from the already-assigned data vertex `anchor` along an edge
/// labelled `pred` (kNullTerm = any label). `v_is_subject` says the new
/// vertex is the subject of the pattern, i.e. expansion runs over the
/// anchor's in-edges.
struct PivotEdge {
  TermId anchor = kNullTerm;
  TermId pred = kNullTerm;
  bool v_is_subject = false;
};

/// Computes the sorted candidate set satisfying every pivot constraint by
/// intersecting the graph's predicate-grouped neighbor ranges (the rarest
/// range drives, membership elsewhere is tested by binary search). The
/// ranges are contiguous, pre-sorted and duplicate-free, so no per-call
/// sort, dedup or allocation happens: results land in `*scratch` (cleared
/// and reused across calls), except that a single wildcard pivot returns the
/// graph's own distinct-neighbor span directly. Requires !pivots.empty().
std::span<const TermId> PivotDomain(const RdfGraph& g,
                                    std::span<const PivotEdge> pivots,
                                    std::vector<TermId>* scratch);

/// The incident edges of one query vertex that share a directed (from, to)
/// endpoint pair — the unit at which Def. 3's injective label condition
/// applies.
struct ParallelEdgeGroup {
  QVertexId from = 0;
  QVertexId to = 0;
  std::vector<QEdgeId> edges;
};

/// Groups each vertex's incident edges by directed endpoint pair, keeping
/// only edges accepted by `keep` (nullptr = all). Precomputed once per
/// search so the backtracking inner loop never rebuilds hash maps.
std::vector<std::vector<ParallelEdgeGroup>> BuildIncidentEdgeGroups(
    const QueryGraph& q, const std::function<bool(QEdgeId)>& keep = nullptr);

/// The one backtracking search behind MatchQuery, CountIntermediateResults
/// and EnumerateLocalPartialMatches: one worker slot's mutable state.
/// `order`, `groups` (BuildIncidentEdgeGroups over the enforced edges) and
/// `relevant` (the same edges as a mask over QEdgeId; nullptr = every edge)
/// are shared read-only and must outlive the search. Visit keeps a
/// candidate u for v = order[depth] when `admissible(v, u)` holds and u is
/// consistent with v's assigned neighbours (edge existence plus Def. 3's
/// label injectivity), counts it as one node and recurses; every full
/// assignment goes to `leaf(binding)`.
class BacktrackSearch {
 public:
  BacktrackSearch(const LocalStore& store, const ResolvedQuery& rq,
                  std::span<const QVertexId> order,
                  const std::vector<std::vector<ParallelEdgeGroup>>& groups,
                  const std::vector<bool>* relevant = nullptr);

  /// Candidate domain of order[depth]: its constant if the graph has it;
  /// else the intersection of the expansions from every assigned neighbour
  /// through a relevant edge; else the store's candidates. The span points
  /// into the graph or into depth's own scratch, so it stays valid while
  /// deeper levels run.
  std::span<const TermId> Domain(size_t depth);

  template <typename Admissible, typename Leaf>
  void Extend(size_t depth, const Admissible& admissible, const Leaf& leaf) {
    if (depth == order_.size()) {
      leaf(binding_);
      return;
    }
    for (TermId u : Domain(depth)) Visit(depth, u, admissible, leaf);
  }

  /// The per-candidate step of Extend.
  template <typename Admissible, typename Leaf>
  void Visit(size_t depth, TermId u, const Admissible& admissible,
             const Leaf& leaf) {
    const QVertexId v = order_[depth];
    if (!admissible(v, u) || !Consistent(v, u)) return;
    ++nodes_;
    binding_[v] = u;
    assigned_[v] = true;
    Extend(depth + 1, admissible, leaf);
    assigned_[v] = false;
    binding_[v] = kNullTerm;
  }

  /// Consistent partial assignments visited so far (the search-tree size,
  /// full assignments included).
  size_t nodes() const { return nodes_; }

  /// Seed entries the store walked for the domains that had no assigned
  /// neighbour to expand from (the sum of LocalStore::CandidatesInto's
  /// counts): the scan work behind the candidates that nodes() admits.
  size_t scanned() const { return scanned_; }

 private:
  bool Consistent(QVertexId v, TermId u) const {
    const RdfGraph& g = store_->graph();
    for (const ParallelEdgeGroup& group : (*groups_)[v]) {
      const QVertexId other = group.from == v ? group.to : group.from;
      if (other != v && !assigned_[other]) continue;
      const TermId a = group.from == v ? u : binding_[group.from];
      const TermId b = group.to == v ? u : binding_[group.to];
      if (!ParallelEdgesSatisfiable(g, *rq_, group.edges, a, b)) return false;
    }
    return true;
  }

  const LocalStore* store_;
  const ResolvedQuery* rq_;
  std::span<const QVertexId> order_;
  const std::vector<std::vector<ParallelEdgeGroup>>* groups_;
  const std::vector<bool>* relevant_;
  std::vector<bool> assigned_;  // indexed by query vertex
  Binding binding_;             // kNullTerm where unassigned
  std::vector<std::vector<TermId>> domain_scratch_;  // one per depth
  std::vector<PivotEdge> pivot_scratch_;  // consumed before recursing
  size_t nodes_ = 0;
  size_t scanned_ = 0;
};

/// Verifies that a full binding is a genuine match of the query per Def. 3:
/// constants agree, every edge's image exists, and parallel query edges map
/// injectively onto distinct data edge labels. Used by the baseline system
/// analogues to re-check relational join outputs (plain relational joins do
/// not enforce the injective multi-edge condition).
bool VerifyMatch(const RdfGraph& graph, const ResolvedQuery& rq,
                 const Binding& binding);

/// Computes a query-vertex elimination order from the store's statistics:
/// starts at the vertex with the smallest estimated cardinality and greedily
/// appends the adjacent vertex whose estimated per-row expansion fan-out
/// (SelectivityEstimator::ExtensionCost — driver fan-out times membership
/// selectivities, characteristic-set-corrected for correlated predicates) is
/// smallest, i.e. the order that keeps the estimated intermediate-result
/// size along the prefix minimal. With use_statistics == false, falls back
/// to MatchingOrderGreedy. Exposed for testing and the ordering ablation.
std::vector<QVertexId> MatchingOrder(const LocalStore& store,
                                     const ResolvedQuery& rq,
                                     bool use_statistics = true);

/// The pre-statistics heuristic: fewest estimated candidates first, average
/// fan-out as the tie-break. Kept as the ablation baseline and as the
/// fallback when the cost model is disabled.
std::vector<QVertexId> MatchingOrderGreedy(const LocalStore& store,
                                           const ResolvedQuery& rq);

/// Runs the backtracking search along `order` without materializing results
/// and returns the number of consistent partial assignments explored (the
/// search-tree size, full matches included) — the cost metric the matching
/// order minimizes. Used by the ordering-quality tests and the ablation
/// benchmark to compare orders on equal terms.
size_t CountIntermediateResults(const LocalStore& store,
                                const ResolvedQuery& rq,
                                std::span<const QVertexId> order);

}  // namespace gstored

#endif  // GSTORED_STORE_MATCHER_H_
