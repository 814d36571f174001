#ifndef GSTORED_STORE_LOCAL_STORE_H_
#define GSTORED_STORE_LOCAL_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "sparql/query_graph.h"
#include "store/stats.h"

namespace gstored {

/// A sorted, duplicate-free range of one vertex's neighbours inside the
/// graph's CSR arrays: a predicate group's half-edges (read `.neighbor`) or
/// a distinct-neighbour id range.
struct NeighbourRange {
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

/// The vertices u joined to `anchor` by an edge labelled `pred` (kNullTerm =
/// any label): u -pred-> anchor when `u_is_subject`, else anchor -pred-> u.
/// That is InEdges(anchor, pred) / OutEdges(anchor, pred), or
/// InNeighbors(anchor) / OutNeighbors(anchor) for a variable predicate;
/// empty when `anchor` is not a vertex of `g`.
inline NeighbourRange NeighboursOf(const RdfGraph& g, TermId anchor,
                                   TermId pred, bool u_is_subject) {
  if (pred == kNullTerm) {
    auto ids = u_is_subject ? g.InNeighbors(anchor) : g.OutNeighbors(anchor);
    return {nullptr, ids.data(), ids.size()};
  }
  auto edges =
      u_is_subject ? g.InEdges(anchor, pred) : g.OutEdges(anchor, pred);
  return {edges.data(), nullptr, edges.size()};
}

/// The seed rule's adjacency source for variable `v`: the smallest
/// NeighboursOf(c, p) over the patterns joining v to a constant c, self-loops
/// aside. Every candidate of v lies in each of these ranges. nullopt when no
/// pattern joins v to a constant. SelectivityEstimator::VertexCardinality
/// prices this range and LocalStore::CandidatesInto scans it, so the two
/// agree on it.
std::optional<NeighbourRange> SmallestConstantAdjacency(
    const RdfGraph& g, const ResolvedQuery& rq, QVertexId v);

/// Per-site storage and indexing layer over an RdfGraph — the stand-in for
/// the centralized gStore engine that the paper installs at every site.
///
/// On top of the graph's CSR adjacency it maintains:
///  * a predicate index (predicate -> (subject, object) pairs) stored as a
///    flat CSR keyed by dense predicate TermId — no hashing on lookup — one
///    of the three sources CandidatesInto seeds a candidate scan from;
///  * per-vertex predicate signatures (a 64-bit Bloom mask of the incident
///    (direction, predicate) pairs), gStore's VS-tree idea reduced to one
///    level, used to discard candidate vertices before touching adjacency.
///
/// The store borrows the graph; the graph must stay alive and must already
/// be finalized.
class LocalStore {
 public:
  explicit LocalStore(const RdfGraph* graph);

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;
  LocalStore(LocalStore&&) = default;

  const RdfGraph& graph() const { return *graph_; }

  /// Aggregate index statistics of the graph (per-predicate cardinalities,
  /// fan-out histograms, characteristic sets), built once at load time and
  /// driving the matcher's selectivity cost model.
  const GraphStatistics& stats() const { return *stats_; }

  /// Number of triples whose predicate is `p`. O(1).
  size_t PredicateCount(TermId p) const;

  /// Subjects / objects of all triples with predicate `p` (each with the
  /// other endpoint), sorted by this endpoint's id. Empty span if unused.
  std::span<const std::pair<TermId, TermId>> SubjectsOf(TermId p) const;
  std::span<const std::pair<TermId, TermId>> ObjectsOf(TermId p) const;

  /// 64-bit signature of vertex v's incident (direction, predicate) pairs.
  uint64_t VertexSignature(TermId v) const;

  /// Signature bit for an outgoing/incoming predicate, for building query-
  /// side requirement masks.
  static uint64_t SignatureBit(TermId predicate, bool outgoing);

  /// Computes the candidate set C(Q, v) for query vertex `v`: every graph
  /// vertex that passes the signature filter and has, for each incident
  /// triple pattern with a constant predicate (and, when the pattern's other
  /// endpoint is a constant, that exact neighbour), a matching edge.
  /// For a constant query vertex this is the vertex itself or empty.
  /// Candidates are sorted by id.
  std::vector<TermId> Candidates(const ResolvedQuery& rq, QVertexId v) const;

  /// Candidates(rq, v) into a caller-owned buffer (cleared first), so hot
  /// loops can reuse one allocation across calls. Returns how many seed
  /// entries the scan walked. A variable's scan walks the smallest of three
  /// sorted sources and tests each entry against all of v's constraints:
  /// SmallestConstantAdjacency(v), the rows of v's cheapest constant
  /// predicate (PredicateCount), or every vertex. The source decides what is
  /// scanned, never what is admitted, so the candidates are the same
  /// whichever source wins. A constant walks itself (1) when it is a vertex.
  size_t CandidatesInto(const ResolvedQuery& rq, QVertexId v,
                        std::vector<TermId>* out) const;

  /// Cheap upper-bound estimate of |Candidates(rq, v)|, used by the matcher
  /// to pick a variable ordering without materializing candidate sets.
  size_t EstimateCandidates(const ResolvedQuery& rq, QVertexId v) const;

  /// Average number of objects reached when expanding one subject through
  /// predicate `p` (triples(p) / distinct subjects of p), and the symmetric
  /// in-direction average, computed in double so sub-1.0 fan-outs of rare
  /// predicates stay distinguishable. 0 for unused predicates. O(1):
  /// delegates to the precomputed statistics.
  double AvgOutFanout(TermId p) const;
  double AvgInFanout(TermId p) const;

  /// Expected expansion fan-out when the matcher reaches query vertex `v`
  /// through its cheapest incident constant-predicate pattern: the minimum,
  /// over those patterns, of the (predicate, direction) average fan-out
  /// toward v. Used by MatchingOrderGreedy as a tie-break when candidate
  /// estimates are equal. Vertices with no constant-predicate incident
  /// pattern report the graph's vertex count (no information).
  double EstimateExpansionFanout(const ResolvedQuery& rq, QVertexId v) const;

 private:
  /// True if vertex u satisfies all local (edge-existence) constraints of
  /// query vertex v that involve only constants.
  bool PassesLocalConstraints(const ResolvedQuery& rq, QVertexId v,
                              TermId u) const;

  const RdfGraph* graph_;
  // Predicate tables as CSR keyed by predicate id: offsets have size
  // max_pred_id + 2; rows of `pred_so_` are (subject, object) sorted by
  // subject, rows of `pred_os_` are (object, subject) sorted by object.
  std::vector<uint32_t> pred_offsets_;
  std::vector<std::pair<TermId, TermId>> pred_so_;
  std::vector<std::pair<TermId, TermId>> pred_os_;
  std::vector<uint64_t> signatures_;  // indexed by term id
  std::unique_ptr<GraphStatistics> stats_;
};

}  // namespace gstored

#endif  // GSTORED_STORE_LOCAL_STORE_H_
