#include "store/local_store.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

std::optional<NeighbourRange> SmallestConstantAdjacency(
    const RdfGraph& g, const ResolvedQuery& rq, QVertexId v) {
  const QueryGraph& q = *rq.query;
  std::optional<NeighbourRange> best;
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    const QVertexId other = e.from == v ? e.to : e.from;
    if (other == v || rq.vertex_term[other] == kNullTerm) continue;
    NeighbourRange range = NeighboursOf(g, rq.vertex_term[other],
                                        rq.edge_pred[eid], e.from == v);
    if (!best || range.size < best->size) best = range;
  }
  return best;
}

LocalStore::LocalStore(const RdfGraph* graph) : graph_(graph) {
  GSTORED_CHECK(graph != nullptr);
  GSTORED_CHECK(graph->finalized());

  const std::vector<Triple>& triples = graph_->triples();
  TermId max_pred = 0;
  for (const Triple& t : triples) max_pred = std::max(max_pred, t.predicate);
  size_t num_preds = triples.empty() ? 0 : static_cast<size_t>(max_pred) + 1;

  pred_offsets_.assign(num_preds + 1, 0);
  for (const Triple& t : triples) ++pred_offsets_[t.predicate + 1];
  for (size_t i = 1; i < pred_offsets_.size(); ++i) {
    pred_offsets_[i] += pred_offsets_[i - 1];
  }
  // triples are sorted (s,p,o), so each predicate's (subject, object) rows
  // arrive already sorted; the (object, subject) rows need a per-range sort.
  pred_so_.resize(triples.size());
  pred_os_.resize(triples.size());
  std::vector<uint32_t> cursor(pred_offsets_.begin(), pred_offsets_.end() - 1);
  for (const Triple& t : triples) {
    pred_so_[cursor[t.predicate]] = {t.subject, t.object};
    pred_os_[cursor[t.predicate]++] = {t.object, t.subject};
  }
  for (size_t p = 0; p < num_preds; ++p) {
    std::sort(pred_os_.begin() + pred_offsets_[p],
              pred_os_.begin() + pred_offsets_[p + 1]);
  }

  stats_ = std::make_unique<GraphStatistics>(graph_);

  signatures_.assign(graph_->vertex_id_bound(), 0);
  for (TermId v : graph_->vertices()) {
    uint64_t sig = 0;
    // One directory entry per distinct incident predicate — cheaper than
    // walking every edge of high-degree vertices.
    for (const PredRange& r : graph_->OutPredicates(v)) {
      sig |= SignatureBit(r.predicate, /*outgoing=*/true);
    }
    for (const PredRange& r : graph_->InPredicates(v)) {
      sig |= SignatureBit(r.predicate, /*outgoing=*/false);
    }
    signatures_[v] = sig;
  }
}

size_t LocalStore::PredicateCount(TermId p) const {
  if (static_cast<size_t>(p) + 1 >= pred_offsets_.size()) return 0;
  return pred_offsets_[p + 1] - pred_offsets_[p];
}

std::span<const std::pair<TermId, TermId>> LocalStore::SubjectsOf(
    TermId p) const {
  if (static_cast<size_t>(p) + 1 >= pred_offsets_.size()) return {};
  return {pred_so_.data() + pred_offsets_[p],
          pred_so_.data() + pred_offsets_[p + 1]};
}

std::span<const std::pair<TermId, TermId>> LocalStore::ObjectsOf(
    TermId p) const {
  if (static_cast<size_t>(p) + 1 >= pred_offsets_.size()) return {};
  return {pred_os_.data() + pred_offsets_[p],
          pred_os_.data() + pred_offsets_[p + 1]};
}

uint64_t LocalStore::VertexSignature(TermId v) const {
  if (v >= signatures_.size()) return 0;
  return signatures_[v];
}

uint64_t LocalStore::SignatureBit(TermId predicate, bool outgoing) {
  uint64_t h = MixU64((static_cast<uint64_t>(predicate) << 1) |
                      (outgoing ? 1u : 0u));
  return uint64_t{1} << (h & 63);
}

bool LocalStore::PassesLocalConstraints(const ResolvedQuery& rq, QVertexId v,
                                        TermId u) const {
  const QueryGraph& q = *rq.query;
  // Signature pre-filter: every constant-predicate incident edge demands a
  // signature bit.
  uint64_t required = 0;
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    TermId pred = rq.edge_pred[eid];
    if (pred == kNullTerm) continue;
    // Self-loops contribute both directions.
    if (e.from == v) required |= SignatureBit(pred, /*outgoing=*/true);
    if (e.to == v) required |= SignatureBit(pred, /*outgoing=*/false);
  }
  if ((VertexSignature(u) & required) != required) return false;

  // Exact adjacency checks for constant predicates and constant neighbours.
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    TermId pred = rq.edge_pred[eid];
    // Consider both roles (covers self-loops).
    if (e.from == v) {
      TermId other = rq.vertex_term[e.to];
      if (other != kNullTerm && e.to != v) {
        // u must have an edge u -> other with `pred` (or any, if variable).
        if (pred != kNullTerm) {
          if (!graph_->HasTriple(u, pred, other)) return false;
        } else if (!graph_->HasAnyEdge(u, other)) {
          return false;
        }
      } else if (pred != kNullTerm) {
        // u must have some outgoing `pred` edge.
        if (!graph_->HasPredicate(u, pred, EdgeDir::kOut)) return false;
      } else if (graph_->OutDegree(u) == 0) {
        return false;
      }
    }
    if (e.to == v) {
      TermId other = rq.vertex_term[e.from];
      if (other != kNullTerm && e.from != v) {
        if (pred != kNullTerm) {
          if (!graph_->HasTriple(other, pred, u)) return false;
        } else if (!graph_->HasAnyEdge(other, u)) {
          return false;
        }
      } else if (pred != kNullTerm) {
        if (!graph_->HasPredicate(u, pred, EdgeDir::kIn)) return false;
      } else if (graph_->InDegree(u) == 0) {
        return false;
      }
    }
  }
  return true;
}

std::vector<TermId> LocalStore::Candidates(const ResolvedQuery& rq,
                                           QVertexId v) const {
  std::vector<TermId> out;
  CandidatesInto(rq, v, &out);
  return out;
}

size_t LocalStore::CandidatesInto(const ResolvedQuery& rq, QVertexId v,
                                  std::vector<TermId>* out) const {
  const QueryGraph& q = *rq.query;
  out->clear();
  if (rq.impossible) return 0;

  TermId constant = rq.vertex_term[v];
  if (constant != kNullTerm) {
    if (!graph_->HasVertex(constant)) return 0;
    if (PassesLocalConstraints(rq, v, constant)) out->push_back(constant);
    return 1;
  }

  // Seed from the smallest source: a constant neighbour's adjacency, the
  // cheapest incident constant predicate's rows, or the full vertex list.
  // All three are sorted by id, so the candidates come out sorted.
  TermId best_pred = kNullTerm;
  bool best_as_subject = true;
  size_t best_count = graph_->num_vertices();
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    TermId pred = rq.edge_pred[eid];
    if (pred == kNullTerm) continue;
    size_t count = PredicateCount(pred);
    if (count < best_count) {
      best_count = count;
      best_pred = pred;
      best_as_subject = (e.from == v);
    }
  }
  const auto admit = [&](TermId u) {
    if (PassesLocalConstraints(rq, v, u)) out->push_back(u);
  };

  const std::optional<NeighbourRange> adjacency =
      SmallestConstantAdjacency(*graph_, rq, v);
  if (adjacency && adjacency->size < best_count) {
    for (size_t i = 0; i < adjacency->size; ++i) admit((*adjacency)[i]);
    return adjacency->size;
  }
  if (best_pred != kNullTerm) {
    auto rows = best_as_subject ? SubjectsOf(best_pred) : ObjectsOf(best_pred);
    TermId prev = kNullTerm;
    for (const auto& [endpoint, other] : rows) {
      if (endpoint == prev) continue;  // rows sorted by endpoint
      prev = endpoint;
      admit(endpoint);
    }
    return rows.size();
  }
  for (TermId u : graph_->vertices()) admit(u);
  return graph_->num_vertices();
}

double LocalStore::AvgOutFanout(TermId p) const {
  return stats_->AvgOutFanout(p);
}

double LocalStore::AvgInFanout(TermId p) const {
  return stats_->AvgInFanout(p);
}

double LocalStore::EstimateExpansionFanout(const ResolvedQuery& rq,
                                           QVertexId v) const {
  const QueryGraph& q = *rq.query;
  double best = static_cast<double>(graph_->num_vertices());
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    TermId pred = rq.edge_pred[eid];
    if (pred == kNullTerm) continue;
    // Reaching v as the object of (s, pred, v) walks s's out-edges; reaching
    // v as the subject walks the object's in-edges.
    if (e.to == v) best = std::min(best, AvgOutFanout(pred));
    if (e.from == v) best = std::min(best, AvgInFanout(pred));
  }
  return best;
}

size_t LocalStore::EstimateCandidates(const ResolvedQuery& rq,
                                      QVertexId v) const {
  if (rq.vertex_term[v] != kNullTerm) return 1;
  const QueryGraph& q = *rq.query;
  size_t best = graph_->num_vertices();
  for (QEdgeId eid : q.IncidentEdges(v)) {
    TermId pred = rq.edge_pred[eid];
    if (pred == kNullTerm) continue;
    best = std::min(best, PredicateCount(pred));
    // A constant neighbour bounds the candidates by its degree.
    const QueryEdge& e = q.edge(eid);
    QVertexId other = e.from == v ? e.to : e.from;
    TermId other_term = rq.vertex_term[other];
    if (other_term != kNullTerm) {
      best = std::min(best, graph_->Degree(other_term));
    }
  }
  return best;
}

}  // namespace gstored
