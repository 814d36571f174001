#include "store/stats.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "store/local_store.h"
#include "util/logging.h"

namespace gstored {

void FanoutHistogram::Add(uint32_t fanout) {
  if (fanout == 0) return;
  // floor(log2(fanout)), clamped into the last bucket.
  size_t bucket = static_cast<size_t>(31 - __builtin_clz(fanout));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  ++counts[bucket];
  ++total;
  max_fanout = std::max(max_fanout, fanout);
}

double FanoutHistogram::Quantile(double q) const {
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) {
      double ceiling = static_cast<double>((uint64_t{1} << (i + 1)) - 1);
      return std::min(ceiling, static_cast<double>(max_fanout));
    }
  }
  return static_cast<double>(max_fanout);
}

GraphStatistics::GraphStatistics(const RdfGraph* graph) : graph_(graph) {
  GSTORED_CHECK(graph != nullptr);
  GSTORED_CHECK(graph->finalized());

  size_t num_preds = graph_->predicates().empty()
                         ? 0
                         : static_cast<size_t>(graph_->predicates().back()) + 1;
  preds_.resize(num_preds);

  // One pass over the per-vertex predicate directories: each out-directory
  // entry is (one distinct subject of p, its fan-out), each in-directory
  // entry the object-side mirror. Triples are counted on the out side only.
  std::map<std::vector<TermId>, size_t> set_index;
  std::vector<TermId> key;
  for (TermId v : graph_->vertices()) {
    key.clear();
    for (const PredRange& r : graph_->OutPredicates(v)) {
      PredicateCardinality& c = preds_[r.predicate];
      uint32_t fanout = r.end - r.begin;
      c.triples += fanout;
      ++c.distinct_subjects;
      c.out_hist.Add(fanout);
      key.push_back(r.predicate);
    }
    for (const PredRange& r : graph_->InPredicates(v)) {
      PredicateCardinality& c = preds_[r.predicate];
      ++c.distinct_objects;
      c.in_hist.Add(r.end - r.begin);
    }

    if (key.empty()) continue;  // v is a sink: no characteristic set
    auto [it, inserted] = set_index.try_emplace(key, char_sets_.size());
    if (inserted) {
      CharacteristicSet cs;
      cs.predicates = key;  // directory entries arrive predicate-sorted
      char_sets_.push_back(std::move(cs));
    }
    ++char_sets_[it->second].count;
  }

  // Re-emit in the map's predicate-set lexicographic order so the layout is
  // independent of vertex iteration order.
  std::vector<CharacteristicSet> ordered;
  ordered.reserve(char_sets_.size());
  for (const auto& [preds, index] : set_index) {
    ordered.push_back(std::move(char_sets_[index]));
  }
  char_sets_ = std::move(ordered);

  // Predicate -> containing characteristic sets, so the superset probes can
  // walk only the rarest queried predicate's list instead of every distinct
  // set. Built over the ordered layout, so each list is ascending.
  charset_index_.resize(preds_.size());
  for (uint32_t i = 0; i < char_sets_.size(); ++i) {
    for (TermId p : char_sets_[i].predicates) {
      charset_index_[p].push_back(i);
    }
  }
}

size_t GraphStatistics::TripleCount(TermId p) const {
  if (static_cast<size_t>(p) >= preds_.size()) return 0;
  return preds_[p].triples;
}

size_t GraphStatistics::DistinctSubjects(TermId p) const {
  if (static_cast<size_t>(p) >= preds_.size()) return 0;
  return preds_[p].distinct_subjects;
}

size_t GraphStatistics::DistinctObjects(TermId p) const {
  if (static_cast<size_t>(p) >= preds_.size()) return 0;
  return preds_[p].distinct_objects;
}

double GraphStatistics::AvgOutFanout(TermId p) const {
  size_t subjects = DistinctSubjects(p);
  if (subjects == 0) return 0.0;
  return static_cast<double>(TripleCount(p)) / static_cast<double>(subjects);
}

double GraphStatistics::AvgInFanout(TermId p) const {
  size_t objects = DistinctObjects(p);
  if (objects == 0) return 0.0;
  return static_cast<double>(TripleCount(p)) / static_cast<double>(objects);
}

const FanoutHistogram* GraphStatistics::Histogram(TermId p,
                                                  EdgeDir dir) const {
  if (static_cast<size_t>(p) >= preds_.size()) return nullptr;
  const PredicateCardinality& c = preds_[p];
  if (c.triples == 0) return nullptr;
  return dir == EdgeDir::kOut ? &c.out_hist : &c.in_hist;
}

double GraphStatistics::AvgDegree() const {
  if (graph_->num_vertices() == 0) return 0.0;
  // Distinct (s, o) pairs are bounded by triples; the average labelled
  // degree is the tight upper estimate available without another pass.
  return static_cast<double>(graph_->num_triples()) /
         static_cast<double>(graph_->num_vertices());
}

namespace {

/// Sorted, deduplicated copy of a predicate list (the superset probes below
/// require canonical form).
std::vector<TermId> CanonicalPreds(std::span<const TermId> preds) {
  std::vector<TermId> sorted(preds.begin(), preds.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

/// A (pred, dir) distribution is considered hub-dominated when its p90
/// exceeds this multiple of the mean. Below the threshold the mean is an
/// adequate expansion estimate (the log2 histogram buckets are too coarse
/// to price mild skew without destabilizing near-tied order decisions);
/// above it, the mass sits in a heavy tail the mean actively hides.
constexpr double kFanoutSkewThreshold = 4.0;

/// Expected expansion count through (pred, dir) from a *variable* anchor,
/// with the fan-out histogram's upper tail folded in: the plain average
/// underprices hub-dominated predicates — a heavy source contributes
/// proportionally many prefix rows, so the search expands far worse than
/// the mean on exactly the rows it actually reaches. Skew-free and mildly
/// skewed predicates keep their exact average; past the hub threshold the
/// estimate moves to the geometric blend sqrt(avg · p90), which prices the
/// tail without letting one extreme max_fanout dominate.
double SkewAwareFanout(const GraphStatistics& st, TermId pred, EdgeDir dir) {
  double avg =
      dir == EdgeDir::kOut ? st.AvgOutFanout(pred) : st.AvgInFanout(pred);
  const FanoutHistogram* hist = st.Histogram(pred, dir);
  if (hist == nullptr || hist->total == 0 || avg <= 0.0) return avg;
  double p90 = hist->Quantile(0.9);
  if (p90 <= avg * kFanoutSkewThreshold) return avg;
  return std::sqrt(avg * p90);
}

}  // namespace

double GraphStatistics::SubjectsWithAllOut(
    std::span<const TermId> preds) const {
  std::vector<TermId> sorted = CanonicalPreds(preds);
  double subjects = 0.0;
  ForEachSupersetSet(sorted, [&](const CharacteristicSet& cs) {
    subjects += static_cast<double>(cs.count);
  });
  return subjects;
}

// ---------------------------------------------------------------------------
// SelectivityEstimator
// ---------------------------------------------------------------------------

SelectivityEstimator::SelectivityEstimator(const GraphStatistics* stats,
                                           const ResolvedQuery* rq)
    : stats_(stats), rq_(rq) {
  GSTORED_CHECK(stats != nullptr && rq != nullptr && rq->query != nullptr);
  card_cache_.assign(rq->query->num_vertices(), -1.0);
}

double SelectivityEstimator::VertexCardinality(QVertexId v) const {
  if (card_cache_[v] < 0.0) card_cache_[v] = VertexCardinalityUncached(v);
  return card_cache_[v];
}

double SelectivityEstimator::VertexCardinalityUncached(QVertexId v) const {
  const GraphStatistics& st = *stats_;
  const RdfGraph& g = st.graph();
  const QueryGraph& q = *rq_->query;
  if (rq_->vertex_term[v] != kNullTerm) {
    // A constant is its own one candidate, unless a pattern joining it to
    // another constant names a data edge that does not exist: the store's
    // candidate check rejects it then, so it has none.
    if (!g.HasVertex(rq_->vertex_term[v])) return 0.0;
    for (QEdgeId eid : q.IncidentEdges(v)) {
      const QueryEdge& e = q.edge(eid);
      const TermId s = rq_->vertex_term[e.from];
      const TermId o = rq_->vertex_term[e.to];
      if (e.from == e.to || s == kNullTerm || o == kNullTerm) continue;
      const TermId pred = rq_->edge_pred[eid];
      if (pred != kNullTerm ? !g.HasTriple(s, pred, o) : !g.HasAnyEdge(s, o)) {
        return 0.0;
      }
    }
    return 1.0;
  }

  double best = static_cast<double>(st.num_vertices());
  // A constant neighbour's adjacency holds every candidate: the range the
  // store's candidate scan walks when it is the smallest source.
  if (auto adjacency = SmallestConstantAdjacency(g, *rq_, v)) {
    best = std::min(best, static_cast<double>(adjacency->size));
  }
  std::vector<TermId> out_preds;
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    TermId pred = rq_->edge_pred[eid];
    if (pred == kNullTerm) continue;
    if (e.from == v) {
      best = std::min(best, static_cast<double>(st.DistinctSubjects(pred)));
      out_preds.push_back(pred);
    }
    if (e.to == v) {
      best = std::min(best, static_cast<double>(st.DistinctObjects(pred)));
    }
  }
  if (out_preds.size() >= 2) {
    // Correlated-predicate bound: exactly the subjects carrying every
    // constrained out-predicate, from the characteristic sets.
    best = std::min(best, JointSubjects(std::move(out_preds)));
  }
  return best;
}

QVertexId SelectivityEstimator::PickCheapestExtension(
    const std::vector<bool>& placed,
    const std::function<bool(QVertexId)>& eligible,
    const std::function<bool(QEdgeId)>& relevant, QVertexId conditioned,
    double* ext_out, bool pair_anchor) const {
  const QueryGraph& q = *rq_->query;
  QVertexId next = kNoVertex;
  double next_ext = 0.0;
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    if (placed[v] || (eligible && !eligible(v))) continue;
    bool adjacent = false;
    for (QVertexId nb : q.Neighbors(v)) {
      if (placed[nb]) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) continue;
    double ext = ExtensionCost(v, placed, relevant, conditioned, pair_anchor);
    if (next == kNoVertex || ext < next_ext ||
        (ext == next_ext && VertexCardinality(v) < VertexCardinality(next))) {
      next = v;
      next_ext = ext;
    }
  }
  if (next != kNoVertex && ext_out != nullptr) *ext_out = next_ext;
  return next;
}

double SelectivityEstimator::JointSubjects(std::vector<TermId> preds) const {
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  auto [it, inserted] = joint_cache_.try_emplace(preds, 0.0);
  if (inserted) it->second = stats_->SubjectsWithAllOut(it->first);
  return it->second;
}

double SelectivityEstimator::ExtensionCost(
    QVertexId v, const std::vector<bool>& placed,
    const std::function<bool(QEdgeId)>& relevant, QVertexId conditioned,
    bool pair_anchor) const {
  const GraphStatistics& st = *stats_;
  const QueryGraph& q = *rq_->query;
  const double num_vertices =
      std::max(1.0, static_cast<double>(st.num_vertices()));

  struct ConnectingEdge {
    QVertexId other;    // the placed anchor
    TermId pred;        // kNullTerm for a variable predicate
    bool v_is_subject;  // v is the subject of the pattern
    double fanout;      // expected expansion count from the placed anchor
  };
  std::vector<ConnectingEdge> conn;
  for (QEdgeId eid : q.IncidentEdges(v)) {
    if (relevant && !relevant(eid)) continue;
    const QueryEdge& e = q.edge(eid);
    QVertexId other = e.from == v ? e.to : e.from;
    if (other == v || !placed[other]) continue;
    bool v_is_subject = (e.from == v);
    TermId pred = rq_->edge_pred[eid];
    TermId anchor_term = rq_->vertex_term[other];
    double fanout;
    if (anchor_term != kNullTerm) {
      // Constant anchor: its expansion size is not an average, it is the
      // graph's actual range length.
      fanout = static_cast<double>(
          NeighboursOf(st.graph(), anchor_term, pred, v_is_subject).size);
    } else if (pred == kNullTerm) {
      fanout = st.AvgDegree();
    } else {
      // Reaching v as subject walks the anchor's in-edges and vice versa;
      // the histogram's p90 penalizes predicates whose mean hides a skewed
      // tail (see SkewAwareFanout).
      fanout = SkewAwareFanout(st, pred,
                               v_is_subject ? EdgeDir::kIn : EdgeDir::kOut);
    }
    conn.push_back({other, pred, v_is_subject, fanout});
  }
  if (conn.empty()) return VertexCardinality(v);

  // Membership probability of a random vertex on v's side of an edge.
  auto selectivity = [&](const ConnectingEdge& c) {
    if (c.pred == kNullTerm) return 1.0;
    double endpoints = static_cast<double>(
        c.v_is_subject ? st.DistinctSubjects(c.pred)
                       : st.DistinctObjects(c.pred));
    return std::min(1.0, endpoints / num_vertices);
  };

  if (rq_->vertex_term[v] != kNullTerm) {
    // Constant target: the domain is one vertex; each connecting edge keeps
    // a prefix row alive with the probability that the anchor's value — one
    // of its estimated candidates — is among the vertices actually touching
    // the constant (an exact per-vertex count from the graph). Edges from
    // the conditioned start are already enforced by its candidate domain
    // (probability 1).
    TermId c_term = rq_->vertex_term[v];
    double keep = 1.0;
    for (const ConnectingEdge& c : conn) {
      if (c.other == conditioned) continue;
      // The anchor's side of the edge, seen from the constant.
      double touching = static_cast<double>(
          NeighboursOf(st.graph(), c_term, c.pred, !c.v_is_subject).size);
      double anchor_card = std::max(1.0, VertexCardinality(c.other));
      keep *= std::min(1.0, touching / anchor_card);
    }
    return keep;
  }

  size_t driver = 0;
  for (size_t i = 1; i < conn.size(); ++i) {
    if (conn[i].fanout < conn[driver].fanout) driver = i;
  }

  if (pair_anchor) {
    // Anchored membership: the driver's candidates survive a non-driver edge
    // only when they are among the *specific* anchor's ~fanout neighbours
    // out of all graph vertices — not merely an endpoint of the predicate
    // somewhere, which is what the membership product below prices. The
    // difference is decisive for triangle-closing extensions, where the
    // second edge is a near-exact filter.
    double ext = conn[driver].fanout;
    for (size_t i = 0; i < conn.size(); ++i) {
      if (i == driver) continue;
      ext *= std::min(1.0, conn[i].fanout / num_vertices);
    }
    return ext;
  }

  // Constrained out-predicates of v across the connecting edges: with >= 2,
  // the characteristic sets give their joint frequency and replace the
  // independence product below.
  std::vector<TermId> out_preds;
  for (const ConnectingEdge& c : conn) {
    if (c.v_is_subject && c.pred != kNullTerm) out_preds.push_back(c.pred);
  }
  std::sort(out_preds.begin(), out_preds.end());
  out_preds.erase(std::unique(out_preds.begin(), out_preds.end()),
                  out_preds.end());
  const bool correlate = out_preds.size() >= 2;

  double ext = conn[driver].fanout;
  for (size_t i = 0; i < conn.size(); ++i) {
    if (i == driver) continue;
    if (correlate && conn[i].v_is_subject && conn[i].pred != kNullTerm) {
      continue;  // folded into the joint characteristic-set factor
    }
    ext *= selectivity(conn[i]);
  }
  if (correlate) {
    double joint = JointSubjects(out_preds);
    const ConnectingEdge& d = conn[driver];
    if (d.v_is_subject && d.pred != kNullTerm) {
      // Every driver extension already carries the driver out-predicate:
      // condition the joint frequency on it.
      double base = std::max(1.0, static_cast<double>(
                                      st.DistinctSubjects(d.pred)));
      ext *= joint / base;
    } else {
      ext *= joint / num_vertices;
    }
  }
  return ext;
}

}  // namespace gstored
