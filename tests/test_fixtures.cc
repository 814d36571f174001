#include "tests/test_fixtures.h"

#include <algorithm>

#include "store/local_store.h"
#include "util/logging.h"

namespace gstored::testing {
namespace {

/// Literals unique to the fixture that are not named in the header.
constexpr const char* kBirth1942 = "\"1942-12-21\"";            // 002
constexpr const char* kDummett = "\"Michael Dummett\"";         // 007
constexpr const char* kWittgenstein =
    "\"Ludwig Wittgenstein\"@en";                               // 016
constexpr const char* kBirth1889 = "\"1889-04-26\"";            // 015
constexpr const char* kCarnap = "\"Rudolf Carnap\"@en";         // 018
constexpr const char* kRonsdorf = "\"Ronsdorf\"@en";            // 020

}  // namespace

std::unique_ptr<Dataset> BuildPaperDataset() {
  auto dataset = std::make_unique<Dataset>();
  // F1 region.
  dataset->AddTripleLexical(kPhi1, kBirthDate, kBirth1942);
  dataset->AddTripleLexical(kPhi1, kName, kCrispin);
  dataset->AddTripleLexical(kInt1, kLabel, kPhilLang);
  // Crossing edges of F1.
  dataset->AddTripleLexical(kPhi1, kInfluencedBy, kPhi2);
  dataset->AddTripleLexical(kPhi2, kMainInterest, kInt1);
  dataset->AddTripleLexical(kPhi1, kInfluencedBy, kPhi3);
  // F2 region.
  dataset->AddTripleLexical(kPhi2, kName, kDummett);
  dataset->AddTripleLexical(kPhi2, kMainInterest, kInt2);
  dataset->AddTripleLexical(kInt2, kLabel, kMetaphysics);
  dataset->AddTripleLexical(kPhi2, kMainInterest, kInt3);
  dataset->AddTripleLexical(kInt3, kLabel, kPhilLogic);
  dataset->AddTripleLexical(kPhi4, kName, kCarnap);
  dataset->AddTripleLexical(kPhi4, kMainInterest, kInt4);
  dataset->AddTripleLexical(kPhi4, kBirthPlace, kPla1);
  // F3 region.
  dataset->AddTripleLexical(kPhi3, kName, kWittgenstein);
  dataset->AddTripleLexical(kPhi3, kBirthDate, kBirth1889);
  dataset->AddTripleLexical(kPhi3, kMainInterest, kInt4);
  dataset->AddTripleLexical(kInt4, kLabel, kLogic);
  dataset->AddTripleLexical(kPla1, kLabel, kRonsdorf);
  dataset->Finalize();
  return dataset;
}

Partitioning BuildPaperPartitioning(const Dataset& dataset) {
  const TermDict& dict = dataset.dict();
  VertexAssignment owner;
  auto assign = [&](const char* lexical, FragmentId f) {
    TermId id = dict.Lookup(lexical);
    GSTORED_CHECK(id != kNullTerm);
    owner[id] = f;
  };
  assign(kPhi1, 0);
  assign(kBirth1942, 0);
  assign(kCrispin, 0);
  assign(kInt1, 0);
  assign(kPhilLang, 0);
  assign(kPhi2, 1);
  assign(kDummett, 1);
  assign(kInt2, 1);
  assign(kMetaphysics, 1);
  assign(kInt3, 1);
  assign(kPhilLogic, 1);
  assign(kPhi4, 1);
  assign(kCarnap, 1);
  assign(kPhi3, 2);
  assign(kWittgenstein, 2);
  assign(kBirth1889, 2);
  assign(kInt4, 2);
  assign(kLogic, 2);
  assign(kPla1, 2);
  assign(kRonsdorf, 2);
  return BuildPartitioning(dataset, owner, 3, "paper_fig1");
}

QueryGraph BuildPaperQuery() {
  // Vertex creation order fixes ids: v1=?p2 (0), v2=?t (1), v3=?p1 (2),
  // v4=?l (3), v5=constant (4).
  QueryGraph q;
  q.AddVertex("?p2");
  q.AddVertex("?t");
  q.AddVertex("?p1");
  q.AddVertex("?l");
  q.AddVertex(kCrispin);
  q.AddEdge("?p1", kInfluencedBy, "?p2");
  q.AddEdge("?p2", kMainInterest, "?t");
  q.AddEdge("?t", kLabel, "?l");
  q.AddEdge("?p1", kName, kCrispin);
  q.AddSelectVar("?p2");
  q.AddSelectVar("?l");
  return q;
}

std::unique_ptr<Dataset> RandomDataset(Rng& rng, size_t num_vertices,
                                       size_t num_edges,
                                       size_t num_predicates) {
  auto dataset = std::make_unique<Dataset>();
  GSTORED_CHECK_GE(num_vertices, 2u);
  GSTORED_CHECK_GE(num_predicates, 1u);
  auto vertex_name = [](size_t i) {
    return "<http://rnd.org/v" + std::to_string(i) + ">";
  };
  auto pred_name = [](size_t i) {
    return "<http://rnd.org/p" + std::to_string(i) + ">";
  };
  for (size_t i = 0; i < num_edges; ++i) {
    size_t s = rng.Uniform(num_vertices);
    size_t o = rng.Uniform(num_vertices);
    if (s == o) o = (o + 1) % num_vertices;  // few self loops; keep it simple
    size_t p = rng.Uniform(num_predicates);
    dataset->AddTripleLexical(vertex_name(s), pred_name(p), vertex_name(o));
  }
  dataset->Finalize();
  return dataset;
}

QueryGraph RandomConnectedQuery(Rng& rng, const Dataset& dataset,
                                size_t num_vertices, size_t num_edges,
                                double constant_prob,
                                double pred_constant_prob) {
  GSTORED_CHECK_GE(num_edges, num_vertices - 1);
  const RdfGraph& graph = dataset.graph();
  const TermDict& dict = dataset.dict();

  std::vector<std::string> labels;
  for (size_t i = 0; i < num_vertices; ++i) {
    if (rng.Chance(constant_prob) && !graph.vertices().empty()) {
      TermId v = graph.vertices()[rng.Uniform(graph.vertices().size())];
      labels.push_back(dict.lexical(v));
    } else {
      labels.push_back("?x" + std::to_string(i));
    }
  }
  // Predicate variables are numbered within this query (?p0, ?p1, ...), so
  // the query text depends on the seed alone, not on what ran before.
  size_t next_pred_var = 0;
  auto pred_label = [&]() -> std::string {
    if (rng.Chance(pred_constant_prob) && !graph.predicates().empty()) {
      TermId p = graph.predicates()[rng.Uniform(graph.predicates().size())];
      return dict.lexical(p);
    }
    return "?p" + std::to_string(next_pred_var++);
  };

  QueryGraph q;
  for (const std::string& label : labels) q.AddVertex(label);
  // Spanning tree first (keeps the query connected), then extra edges.
  for (size_t i = 1; i < num_vertices; ++i) {
    size_t anchor = rng.Uniform(i);
    if (rng.Chance(0.5)) {
      q.AddEdge(labels[i], pred_label(), labels[anchor]);
    } else {
      q.AddEdge(labels[anchor], pred_label(), labels[i]);
    }
  }
  // An extra edge that repeated a (from, constant predicate, to) pattern
  // would make the query statically impossible (Def. 3's label
  // injectivity, HasImpossibleDuplicatePattern), so its predicate is
  // redrawn until it does not; a query that never draws a repeat consumes
  // no extra randomness.
  auto repeats_pattern = [&](QVertexId from, const std::string& pred,
                             QVertexId to) {
    for (const QueryEdge& e : q.edges()) {
      if (!e.pred_is_variable && e.from == from && e.to == to &&
          e.pred_label == pred) {
        return true;
      }
    }
    return false;
  };
  for (size_t e = num_vertices - 1; e < num_edges; ++e) {
    size_t a = rng.Uniform(num_vertices);
    size_t b = rng.Uniform(num_vertices);
    if (a == b) b = (b + 1) % num_vertices;
    const QVertexId from = q.AddVertex(labels[a]);
    const QVertexId to = q.AddVertex(labels[b]);
    std::string pred = pred_label();
    while (repeats_pattern(from, pred, to)) pred = pred_label();
    q.AddEdge(labels[a], pred, labels[b]);
  }
  return q;
}

Pivoted PivotedQuery(Rng& rng, const Dataset& dataset, size_t num_triples,
                     double constant_prob, double pred_constant_prob) {
  const std::vector<Triple>& triples = dataset.graph().triples();
  GSTORED_CHECK(!triples.empty() && num_triples >= 1);
  // Triple indices by endpoint, from the raw triple list.
  std::map<TermId, std::vector<size_t>> incident;
  for (size_t i = 0; i < triples.size(); ++i) {
    incident[triples[i].subject].push_back(i);
    if (triples[i].object != triples[i].subject) {
      incident[triples[i].object].push_back(i);
    }
  }
  std::vector<size_t> walk;
  std::vector<TermId> vertices;  // the walk's, in order of first appearance
  auto take = [&](size_t i) {
    walk.push_back(i);
    for (TermId u : {triples[i].subject, triples[i].object}) {
      if (std::find(vertices.begin(), vertices.end(), u) == vertices.end()) {
        vertices.push_back(u);
      }
    }
  };
  std::vector<size_t> steps;
  auto unused_at = [&](TermId u) {
    steps.clear();
    for (size_t i : incident[u]) {
      if (std::find(walk.begin(), walk.end(), i) == walk.end()) {
        steps.push_back(i);
      }
    }
    return !steps.empty();
  };

  take(rng.Uniform(triples.size()));
  TermId at = rng.Chance(0.5) ? triples[walk[0]].subject
                              : triples[walk[0]].object;
  while (walk.size() < num_triples) {
    // Step along an unused triple at the current vertex; at a dead end,
    // restart from a walk vertex that still has one, so the walk stays
    // connected.
    if (!unused_at(at)) {
      std::vector<TermId> open;
      for (TermId u : vertices) {
        if (unused_at(u)) open.push_back(u);
      }
      if (open.empty()) break;
      at = open[rng.Uniform(open.size())];
      unused_at(at);
    }
    const size_t next = steps[rng.Uniform(steps.size())];
    take(next);
    at = triples[next].subject == at ? triples[next].object
                                     : triples[next].subject;
  }

  const TermDict& dict = dataset.dict();
  std::vector<std::string> labels;
  bool any_variable = false;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (rng.Chance(constant_prob)) {
      labels.push_back(dict.lexical(vertices[i]));
    } else {
      labels.push_back("?x" + std::to_string(i));
      any_variable = true;
    }
  }
  if (!any_variable) {
    const size_t i = rng.Uniform(vertices.size());
    labels[i] = "?x" + std::to_string(i);
  }
  auto label_of = [&](TermId u) {
    return labels[std::find(vertices.begin(), vertices.end(), u) -
                  vertices.begin()];
  };

  Pivoted out;
  for (const std::string& label : labels) out.query.AddVertex(label);
  size_t next_pred_var = 0;
  for (size_t i : walk) {
    const Triple& t = triples[i];
    const std::string pred = rng.Chance(pred_constant_prob)
                                 ? dict.lexical(t.predicate)
                                 : "?p" + std::to_string(next_pred_var++);
    out.query.AddEdge(label_of(t.subject), pred, label_of(t.object));
  }
  out.pivot = std::move(vertices);
  return out;
}

PairLabels LabelsByPair(const RdfGraph& graph) {
  PairLabels labels;
  for (const Triple& t : graph.triples()) {
    labels[{t.subject, t.object}].insert(t.predicate);
  }
  return labels;
}

namespace {

/// DistinctLabels over group[i..], with the labels in `used` taken.
bool DistinctLabelsFrom(const ResolvedQuery& rq,
                        const std::vector<QEdgeId>& group, size_t i,
                        const std::set<TermId>& labels,
                        std::set<TermId>* used) {
  if (i == group.size()) return true;
  const TermId want = rq.edge_pred[group[i]];
  for (TermId p : labels) {
    if ((want != kNullTerm && p != want) || used->count(p) > 0) continue;
    used->insert(p);
    const bool ok = DistinctLabelsFrom(rq, group, i + 1, labels, used);
    used->erase(p);
    if (ok) return true;
  }
  return false;
}

}  // namespace

bool DistinctLabels(const ResolvedQuery& rq, const std::vector<QEdgeId>& group,
                    const std::set<TermId>& labels) {
  std::set<TermId> used;
  return DistinctLabelsFrom(rq, group, 0, labels, &used);
}

VertexAssignment RandomAssignment(Rng& rng, const Dataset& dataset, int k) {
  VertexAssignment owner;
  for (TermId v : dataset.graph().vertices()) {
    owner[v] = static_cast<FragmentId>(rng.Uniform(k));
  }
  return owner;
}

std::vector<LocalPartialMatch> EnumerateAllLpms(
    const Partitioning& partitioning, const ResolvedQuery& rq) {
  std::vector<LocalPartialMatch> lpms;
  for (const Fragment& fragment : partitioning.fragments()) {
    LocalStore store(&fragment.graph());
    auto fragment_lpms = EnumerateLocalPartialMatches(fragment, store, rq);
    lpms.insert(lpms.end(), std::make_move_iterator(fragment_lpms.begin()),
                std::make_move_iterator(fragment_lpms.end()));
  }
  return lpms;
}

}  // namespace gstored::testing
