#ifndef GSTORED_STORE_STATS_H_
#define GSTORED_STORE_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "rdf/graph.h"
#include "sparql/query_graph.h"

namespace gstored {

/// Log2-bucketed fan-out distribution of one (predicate, direction):
/// `counts[i]` is the number of source vertices whose fan-out k through the
/// predicate satisfies floor(log2(k)) == i. Together with the average this
/// captures skew (a predicate whose mass sits in the top buckets expands far
/// worse than its mean suggests).
struct FanoutHistogram {
  static constexpr size_t kBuckets = 16;

  std::array<uint32_t, kBuckets> counts{};
  uint32_t total = 0;       ///< source vertices counted
  uint32_t max_fanout = 0;  ///< largest single fan-out seen

  void Add(uint32_t fanout);

  /// Upper bound of the fan-out at quantile `q` in [0, 1]: the smallest
  /// bucket ceiling below which at least q of the sources fall (clamped to
  /// max_fanout). 0 for an empty histogram.
  double Quantile(double q) const;
};

/// Aggregated statistics of one predicate, RDF-3X style: total triples,
/// distinct endpoints per side, and the per-direction fan-out histograms.
struct PredicateCardinality {
  uint32_t triples = 0;
  uint32_t distinct_subjects = 0;
  uint32_t distinct_objects = 0;
  FanoutHistogram out_hist;  ///< objects reached per subject
  FanoutHistogram in_hist;   ///< subjects reached per object
};

/// One characteristic set (Neumann & Moerkotte): a distinct combination of
/// out-predicates carried by at least one subject. `count` subjects have
/// exactly this predicate set.
struct CharacteristicSet {
  std::vector<TermId> predicates;  ///< sorted, distinct
  uint32_t count = 0;
};

/// Aggregate index statistics of one finalized RdfGraph, computed in a
/// single pass over the CSR predicate directories (no re-sort, no triple
/// scan). One instance lives per LocalStore and drives the matcher's
/// selectivity cost model.
///
/// The graph is borrowed and must outlive the statistics.
class GraphStatistics {
 public:
  explicit GraphStatistics(const RdfGraph* graph);

  GraphStatistics(const GraphStatistics&) = delete;
  GraphStatistics& operator=(const GraphStatistics&) = delete;
  GraphStatistics(GraphStatistics&&) = default;

  const RdfGraph& graph() const { return *graph_; }

  size_t num_vertices() const { return graph_->num_vertices(); }
  size_t num_triples() const { return graph_->num_triples(); }

  /// Per-predicate cardinalities; zeros for unused predicate ids.
  size_t TripleCount(TermId p) const;
  size_t DistinctSubjects(TermId p) const;
  size_t DistinctObjects(TermId p) const;

  /// Average objects reached per subject of `p` (triples / distinct
  /// subjects) and the symmetric in-direction average, in double — a rare
  /// predicate's sub-1.0 fan-out stays distinguishable instead of
  /// truncating to 0. 0.0 for unused predicates.
  double AvgOutFanout(TermId p) const;
  double AvgInFanout(TermId p) const;

  /// Fan-out histogram of (p, dir); nullptr for unused predicate ids.
  /// dir == kOut is the objects-per-subject distribution.
  const FanoutHistogram* Histogram(TermId p, EdgeDir dir) const;

  /// Average labelled degree of a vertex (triples per vertex; the same in
  /// both directions) — the wildcard-predicate expansion estimate.
  double AvgDegree() const;

  /// All characteristic sets, ordered by predicate-set lexicographic order
  /// (deterministic across runs).
  const std::vector<CharacteristicSet>& characteristic_sets() const {
    return char_sets_;
  }

  /// Characteristic sets whose predicate set contains `p` (ascending
  /// indices into characteristic_sets()); empty span for predicates that
  /// appear in none. This is the inverted index behind the superset probe
  /// below — exposed so tests can cross-check it against a linear scan.
  std::span<const uint32_t> CharacteristicSetsWith(TermId p) const {
    if (static_cast<size_t>(p) >= charset_index_.size()) return {};
    return charset_index_[p];
  }

  /// Exact number of subjects whose out-predicate set includes all of
  /// `preds` (need not be sorted; duplicates ignored): every subject carries
  /// exactly one characteristic set, so summing the supersets is exact.
  double SubjectsWithAllOut(std::span<const TermId> preds) const;

 private:
  /// Applies `fn` to every characteristic set whose predicate set is a
  /// superset of `sorted` (canonical: sorted, distinct). Instead of the old
  /// linear scan over all distinct sets, the probe walks only the inverted
  /// index list of the *rarest* queried predicate — every superset must
  /// contain it, so nothing is missed — and std::includes-filters that
  /// list. An empty probe degenerates to all sets; a predicate contained
  /// in no set short-circuits to zero matches.
  template <typename Fn>
  void ForEachSupersetSet(const std::vector<TermId>& sorted, Fn&& fn) const {
    if (sorted.empty()) {
      for (const CharacteristicSet& cs : char_sets_) fn(cs);
      return;
    }
    const std::vector<uint32_t>* rarest = nullptr;
    for (TermId p : sorted) {
      if (static_cast<size_t>(p) >= charset_index_.size()) return;
      const std::vector<uint32_t>& list = charset_index_[p];
      if (list.empty()) return;
      if (rarest == nullptr || list.size() < rarest->size()) rarest = &list;
    }
    for (uint32_t i : *rarest) {
      const CharacteristicSet& cs = char_sets_[i];
      if (std::includes(cs.predicates.begin(), cs.predicates.end(),
                        sorted.begin(), sorted.end())) {
        fn(cs);
      }
    }
  }

  const RdfGraph* graph_;
  std::vector<PredicateCardinality> preds_;  ///< dense by predicate id
  std::vector<CharacteristicSet> char_sets_;
  /// charset_index_[p]: ascending indices of the sets containing p.
  std::vector<std::vector<uint32_t>> charset_index_;
};

/// Estimates candidate cardinalities and per-row expansion costs of one
/// resolved query over one graph's statistics — the shared selectivity model
/// behind MatchingOrder, the src/plan/ planner and the LPM enumerator's unit
/// ordering.
///
/// Both referents are borrowed and must outlive the estimator. Instances
/// memoize characteristic-set probes and are therefore NOT thread-safe:
/// construct one per thread (they are two pointers plus an empty map).
class SelectivityEstimator {
 public:
  SelectivityEstimator(const GraphStatistics* stats, const ResolvedQuery* rq);

  /// Estimated candidate-set size of query vertex v before any neighbour is
  /// bound: 1 for constants (0 when a pattern joining it to another constant
  /// names a missing data edge), otherwise the tightest of the per-predicate
  /// distinct-endpoint bounds, the exact size of SmallestConstantAdjacency
  /// (store/local_store.h; the range LocalStore::CandidatesInto scans when
  /// it is the smallest seed source), and (for >= 2 constrained
  /// out-predicates) the characteristic-set count.
  double VertexCardinality(QVertexId v) const;

  /// Sentinel for ExtensionCost's `conditioned` parameter: no search-start
  /// vertex whose domain pre-enforced its incident constraints.
  static constexpr QVertexId kNoVertex = static_cast<QVertexId>(-1);

  /// Expected extensions per already-materialized prefix row when v is
  /// matched next. `placed[w]` marks bound query vertices; edges rejected by
  /// `relevant` (when set) are ignored, mirroring the LPM enumerator's
  /// relevant-edge restriction. The estimate is the cheapest connecting
  /// edge's average fan-out multiplied by the membership probability of
  /// every other connecting edge, with the independence assumption replaced
  /// by the characteristic-set joint frequency across v's constrained
  /// out-predicates. Returns VertexCardinality(v) when no connecting edge
  /// exists (cartesian restart).
  ///
  /// `conditioned` names the search's start vertex, whose candidate domain
  /// was computed with ALL its incident constraints applied
  /// (LocalStore::CandidatesInto): when v is a constant, the edge
  /// start -> v is already guaranteed on every surviving row and must not
  /// be priced as an independent filter again.
  ///
  /// `pair_anchor` switches the non-driver membership factors to anchored
  /// pair probabilities (~fanout/|V| — the chance the candidate is a
  /// neighbour of the *specific* placed anchor, not merely an endpoint of
  /// the predicate somewhere). Sharper on triangle-closing extensions and
  /// used by the src/plan/ DP enumerator; the default keeps the original
  /// membership product that MatchingOrder's greedy was tuned against.
  double ExtensionCost(QVertexId v, const std::vector<bool>& placed,
                       const std::function<bool(QEdgeId)>& relevant = nullptr,
                       QVertexId conditioned = kNoVertex,
                       bool pair_anchor = false) const;

  /// The greedy order-building step shared by MatchingOrder and the LPM
  /// enumerator's unit ordering: among the unplaced vertices accepted by
  /// `eligible` (nullptr = all) that are adjacent to a placed vertex, picks
  /// the one with the smallest ExtensionCost, breaking ties by smaller
  /// VertexCardinality, then lower id. Returns kNoVertex when no eligible
  /// vertex is adjacent; otherwise writes the winner's extension cost to
  /// `*ext_out` (may be null).
  QVertexId PickCheapestExtension(
      const std::vector<bool>& placed,
      const std::function<bool(QVertexId)>& eligible = nullptr,
      const std::function<bool(QEdgeId)>& relevant = nullptr,
      QVertexId conditioned = kNoVertex, double* ext_out = nullptr,
      bool pair_anchor = false) const;

 private:
  /// SubjectsWithAllOut with memoization — the same predicate combinations
  /// recur across greedy rounds and island masks, while the underlying probe
  /// scans every characteristic set.
  double JointSubjects(std::vector<TermId> preds) const;

  double VertexCardinalityUncached(QVertexId v) const;

  const GraphStatistics* stats_;
  const ResolvedQuery* rq_;
  mutable std::map<std::vector<TermId>, double> joint_cache_;
  mutable std::vector<double> card_cache_;  // -1 = not yet computed
};

}  // namespace gstored

#endif  // GSTORED_STORE_STATS_H_
