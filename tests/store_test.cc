// Unit tests for the store layer: candidate computation and its seed rule
// (checked against a raw-triple reference), the vertex signature filter, the
// backtracking matcher (checked against a brute-force oracle on small
// graphs), parallel-edge injectivity, variable predicates, self-loops, match
// limits and VerifyMatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "store/local_store.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"

namespace gstored {
namespace {

/// Brute force: try every assignment of graph vertices to query vertices
/// and keep those passing VerifyMatch. Exponential — tiny inputs only.
std::vector<Binding> BruteForceMatches(const RdfGraph& graph,
                                       const ResolvedQuery& rq) {
  const std::vector<TermId>& vertices = graph.vertices();
  size_t n = rq.query->num_vertices();
  std::vector<Binding> out;
  Binding binding(n, kNullTerm);
  std::function<void(size_t)> rec = [&](size_t depth) {
    if (depth == n) {
      if (VerifyMatch(graph, rq, binding)) out.push_back(binding);
      return;
    }
    for (TermId v : vertices) {
      binding[depth] = v;
      rec(depth + 1);
    }
  };
  if (!rq.impossible) rec(0);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Binding> MatcherResults(const RdfGraph& graph,
                                    const ResolvedQuery& rq) {
  LocalStore store(&graph);
  std::vector<Binding> matches = MatchQuery(store, rq);
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

TEST(LocalStoreTest, PredicateIndex) {
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  TermId name = dataset->dict().Lookup(testing::kName);
  EXPECT_EQ(store.PredicateCount(name), 4u);  // Phi1..Phi4 have names
  EXPECT_EQ(store.SubjectsOf(name).size(), 4u);
  EXPECT_EQ(store.ObjectsOf(name).size(), 4u);
  EXPECT_EQ(store.PredicateCount(kNullTerm - 1), 0u);
  EXPECT_TRUE(store.SubjectsOf(12345).empty());
}

TEST(LocalStoreTest, CandidatesRespectConstantNeighbours) {
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  // ?p1 name "Crispin Wright"@en — only Phi1 qualifies for ?p1.
  QueryGraph q;
  q.AddEdge("?p1", testing::kName, testing::kCrispin);
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  std::vector<TermId> candidates;
  const size_t walked =
      store.CandidatesInto(rq, q.AddVertex("?p1"), &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], dataset->dict().Lookup(testing::kPhi1));
  // The seed is the literal's one `name` in-edge, not the predicate's 4 rows.
  EXPECT_EQ(walked, 1u);
}

TEST(LocalStoreTest, CandidatesForConstantVertex) {
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  QueryGraph q;
  q.AddEdge(testing::kPhi1, testing::kInfluencedBy, "?x");
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  auto candidates = store.Candidates(rq, q.AddVertex(testing::kPhi1));
  ASSERT_EQ(candidates.size(), 1u);
  // Constant with unsatisfiable constraints yields nothing.
  QueryGraph q2;
  q2.AddEdge(testing::kCrispin, testing::kInfluencedBy, "?x");
  ResolvedQuery rq2 = ResolveQuery(q2, dataset->dict());
  EXPECT_TRUE(store.Candidates(rq2, q2.AddVertex(testing::kCrispin)).empty());
}

TEST(LocalStoreTest, CandidatesSupersetOfMatchProjections) {
  // Soundness: the candidate set of each variable contains every vertex
  // that appears in that position in some match.
  Rng rng(77);
  auto dataset = testing::RandomDataset(rng, 25, 90, 4);
  LocalStore store(&dataset->graph());
  QueryGraph q = testing::RandomConnectedQuery(rng, *dataset, 3, 3);
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  auto matches = MatchQuery(store, rq);
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    auto candidates = store.Candidates(rq, v);
    std::set<TermId> cset(candidates.begin(), candidates.end());
    for (const Binding& m : matches) {
      EXPECT_TRUE(cset.count(m[v])) << "v=" << v;
    }
  }
}

/// What the store's candidate scan must return and walk, re-derived from a
/// graph's raw triple list: no CSR lookup and no PassesLocalConstraints.
struct ReferenceScan {
  std::vector<TermId> candidates;
  size_t walked = 0;
  bool from_adjacency = false;  ///< a constant neighbour's range is smallest
};

/// u is a candidate of v when every pattern incident to v has a triple at u:
/// to the pattern's other end when that is a constant, to any vertex
/// otherwise (so a self-loop asks for its predicate in both directions, not
/// for a loop), through the pattern's predicate or, when it is a variable,
/// any. The walked count is the smallest seed source: a constant
/// neighbour's adjacency, a constant predicate's triples, or all vertices.
ReferenceScan ReferenceCandidates(const std::vector<Triple>& triples,
                                  const ResolvedQuery& rq, QVertexId v) {
  ReferenceScan ref;
  if (rq.impossible) return ref;
  const QueryGraph& q = *rq.query;
  std::set<TermId> vertices;
  for (const Triple& t : triples) vertices.insert({t.subject, t.object});
  // True when some triple matches (s, p, o), kNullTerm matching anything.
  auto exists = [&](TermId s, TermId p, TermId o) {
    return std::any_of(triples.begin(), triples.end(), [&](const Triple& t) {
      return (s == kNullTerm || t.subject == s) &&
             (p == kNullTerm || t.predicate == p) &&
             (o == kNullTerm || t.object == o);
    });
  };
  auto passes = [&](TermId u) {
    for (QEdgeId eid : q.IncidentEdges(v)) {
      const QueryEdge& e = q.edge(eid);
      const TermId pred = rq.edge_pred[eid];
      if (e.from == v &&
          !exists(u, pred, e.to == v ? kNullTerm : rq.vertex_term[e.to])) {
        return false;
      }
      if (e.to == v &&
          !exists(e.from == v ? kNullTerm : rq.vertex_term[e.from], pred, u)) {
        return false;
      }
    }
    return true;
  };
  const TermId constant = rq.vertex_term[v];
  for (TermId u : vertices) {
    if ((constant == kNullTerm || u == constant) && passes(u)) {
      ref.candidates.push_back(u);
    }
  }
  if (constant != kNullTerm) {
    ref.walked = vertices.count(constant);
    return ref;
  }

  size_t rows = vertices.size();
  size_t adjacency = SIZE_MAX;
  for (QEdgeId eid : q.IncidentEdges(v)) {
    const QueryEdge& e = q.edge(eid);
    const TermId pred = rq.edge_pred[eid];
    if (pred != kNullTerm) {
      rows = std::min<size_t>(
          rows, std::count_if(triples.begin(), triples.end(),
                              [&](const Triple& t) {
                                return t.predicate == pred;
                              }));
    }
    const QVertexId other = e.from == v ? e.to : e.from;
    const TermId c = rq.vertex_term[other];
    if (other == v || c == kNullTerm) continue;
    std::set<TermId> neighbours;
    for (const Triple& t : triples) {
      if (pred != kNullTerm && t.predicate != pred) continue;
      if (e.from == v && t.object == c) neighbours.insert(t.subject);
      if (e.to == v && t.subject == c) neighbours.insert(t.object);
    }
    adjacency = std::min(adjacency, neighbours.size());
  }
  ref.from_adjacency = adjacency < rows;
  ref.walked = std::min(adjacency, rows);
  return ref;
}

/// Adds a self-loop (v, p, v) at `count` random vertices of `dataset` and
/// returns one query per loop: ?x over the loop, and ?x joined to a data
/// neighbour of v kept constant, through its predicate or a variable one.
std::vector<QueryGraph> AddSelfLoops(Rng& rng, Dataset* dataset, int count) {
  const std::vector<Triple> triples = dataset->graph().triples();
  const TermDict& dict = dataset->dict();
  std::vector<QueryGraph> queries;
  for (int i = 0; i < count; ++i) {
    const Triple& t = triples[rng.Uniform(triples.size())];
    const std::string v = dict.lexical(t.subject);
    const std::string loop = dict.lexical(t.predicate);
    dataset->AddTripleLexical(v, loop, v);
    QueryGraph q;
    q.AddEdge("?x", loop, "?x");
    q.AddEdge("?x", rng.Chance(0.5) ? "?p" : loop, dict.lexical(t.object));
    queries.push_back(std::move(q));
  }
  dataset->Finalize();
  return queries;
}

/// The seed rule's oracle: over random graphs with self-loops and their
/// fragments under a random 3-way partitioning, every query vertex's
/// candidates equal the raw-triple reference, id for id, and the scan walks
/// exactly the smallest seed source. Queries carry constants: pivoted ones,
/// whose variables have candidates, random ones for the empty cases, and
/// the self-loop queries.
TEST(SeedRuleTest, CandidatesAndWalkedCountMatchTheRawTriples) {
  size_t seeded_nonempty = 0;  // variables seeded from an adjacency
  size_t wildcard_next_to_constant = 0;
  size_t self_loop_vertices = 0;
  size_t absent_constants = 0;  // (store, constant) pairs
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 7919);
    auto dataset = testing::RandomDataset(rng, 18 + seed % 15,
                                          50 + (seed * 11) % 70, 2 + seed % 4);
    std::vector<QueryGraph> queries = AddSelfLoops(rng, dataset.get(), 2);
    for (int i = 0; i < 3; ++i) {
      queries.push_back(
          testing::PivotedQuery(rng, *dataset, 2 + rng.Uniform(4)).query);
    }
    for (int i = 0; i < 2; ++i) {
      queries.push_back(testing::RandomConnectedQuery(
          rng, *dataset, 3, 3, /*constant_prob=*/0.5,
          /*pred_constant_prob=*/0.6));
    }
    Partitioning partitioning = BuildPartitioning(
        *dataset, testing::RandomAssignment(rng, *dataset, 3), 3, "random");
    std::vector<const RdfGraph*> graphs = {&dataset->graph()};
    for (const Fragment& f : partitioning.fragments()) {
      graphs.push_back(&f.graph());
    }

    for (const QueryGraph& q : queries) {
      ResolvedQuery rq = ResolveQuery(q, dataset->dict());
      for (const RdfGraph* graph : graphs) {
        LocalStore store(graph);
        std::vector<TermId> candidates;
        for (QVertexId v = 0; v < q.num_vertices(); ++v) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " v" +
                       std::to_string(v) + " query " + q.ToString());
          const ReferenceScan ref =
              ReferenceCandidates(graph->triples(), rq, v);
          const size_t walked = store.CandidatesInto(rq, v, &candidates);
          EXPECT_EQ(candidates, ref.candidates);
          EXPECT_EQ(walked, ref.walked);

          const TermId term = rq.vertex_term[v];
          if (term != kNullTerm) {
            absent_constants += !graph->HasVertex(term);
            continue;
          }
          seeded_nonempty += ref.from_adjacency && !candidates.empty();
          for (QEdgeId eid : q.IncidentEdges(v)) {
            const QueryEdge& e = q.edge(eid);
            const QVertexId other = e.from == v ? e.to : e.from;
            self_loop_vertices += other == v;
            wildcard_next_to_constant += other != v &&
                                         rq.edge_pred[eid] == kNullTerm &&
                                         rq.vertex_term[other] != kNullTerm;
          }
        }
      }
    }
  }
  EXPECT_GT(seeded_nonempty, 0u);
  EXPECT_GT(wildcard_next_to_constant, 0u);
  EXPECT_GT(self_loop_vertices, 0u);
  EXPECT_GT(absent_constants, 0u);
  RecordProperty("adjacency_seeded_nonempty",
                 static_cast<int>(seeded_nonempty));
  RecordProperty("wildcard_next_to_constant",
                 static_cast<int>(wildcard_next_to_constant));
  RecordProperty("self_loop_vertices", static_cast<int>(self_loop_vertices));
  RecordProperty("absent_constants", static_cast<int>(absent_constants));
}

TEST(SeedRuleTest, BacktrackSearchSumsTheSeedScans) {
  // Only the start vertex has no assigned neighbour to expand from, so the
  // search scans exactly what CandidatesInto walks for it.
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  QueryGraph q = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  const auto groups = BuildIncidentEdgeGroups(q);
  // Connected orders from ?p2 (no constant neighbour) and from ?p1 (next
  // to the literal).
  const std::vector<std::vector<QVertexId>> orders = {{0, 1, 2, 3, 4},
                                                      {2, 0, 4, 1, 3}};
  for (const std::vector<QVertexId>& order : orders) {
    BacktrackSearch search(store, rq, order, groups);
    search.Extend(0, [](QVertexId, TermId) { return true; },
                  [](const Binding&) {});
    std::vector<TermId> candidates;
    EXPECT_EQ(search.scanned(),
              store.CandidatesInto(rq, order[0], &candidates))
        << "start v" << order[0];
    EXPECT_GT(search.nodes(), 0u);
  }
}

TEST(MatcherTest, SingleTriplePattern) {
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.AddTripleLexical("<c>", "<p>", "<d>");
  data.AddTripleLexical("<a>", "<q>", "<d>");
  data.Finalize();
  QueryGraph q;
  q.AddEdge("?x", "<p>", "?y");
  ResolvedQuery rq = ResolveQuery(q, data.dict());
  EXPECT_EQ(MatcherResults(data.graph(), rq).size(), 2u);
}

TEST(MatcherTest, HomomorphismAllowsSharedImages) {
  // ?x <p> ?y . ?y <p> ?z — a homomorphism may map x and z to the same
  // vertex (SPARQL BGP semantics are homomorphic, not isomorphic).
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.AddTripleLexical("<b>", "<p>", "<a>");
  data.Finalize();
  QueryGraph q;
  q.AddEdge("?x", "<p>", "?y");
  q.AddEdge("?y", "<p>", "?z");
  ResolvedQuery rq = ResolveQuery(q, data.dict());
  auto matches = MatcherResults(data.graph(), rq);
  EXPECT_EQ(matches.size(), 2u);  // (a,b,a) and (b,a,b)
}

TEST(MatcherTest, VariablePredicateMatchesAnyLabel) {
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.AddTripleLexical("<a>", "<q>", "<c>");
  data.Finalize();
  QueryGraph q;
  q.AddEdge("?x", "?pred", "?y");
  ResolvedQuery rq = ResolveQuery(q, data.dict());
  EXPECT_EQ(MatcherResults(data.graph(), rq).size(), 2u);
}

TEST(MatcherTest, ParallelEdgeInjectivity) {
  // Two parallel query edges with distinct constant labels need two distinct
  // data edges between the same pair.
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.AddTripleLexical("<a>", "<q>", "<b>");
  data.AddTripleLexical("<c>", "<p>", "<d>");
  data.Finalize();
  QueryGraph both;
  both.AddEdge("?x", "<p>", "?y");
  both.AddEdge("?x", "<q>", "?y");
  ResolvedQuery rq = ResolveQuery(both, data.dict());
  auto matches = MatcherResults(data.graph(), rq);
  ASSERT_EQ(matches.size(), 1u);  // only (a, b)

  // Two variable-predicate parallel edges need two distinct labels.
  QueryGraph two_vars;
  two_vars.AddEdge("?x", "?p1", "?y");
  two_vars.AddEdge("?x", "?p2", "?y");
  ResolvedQuery rq2 = ResolveQuery(two_vars, data.dict());
  EXPECT_EQ(MatcherResults(data.graph(), rq2).size(), 1u);  // only (a,b)

  // Duplicate constant labels can never map injectively.
  QueryGraph dup;
  dup.AddEdge("?x", "<p>", "?y");
  dup.AddEdge("?x", "<p>", "?y");
  ResolvedQuery rq3 = ResolveQuery(dup, data.dict());
  EXPECT_TRUE(MatcherResults(data.graph(), rq3).empty());
}

TEST(MatcherTest, SelfLoopPattern) {
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<a>");
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.Finalize();
  QueryGraph q;
  q.AddEdge("?x", "<p>", "?x");
  ResolvedQuery rq = ResolveQuery(q, data.dict());
  auto matches = MatcherResults(data.graph(), rq);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], data.dict().Lookup("<a>"));
}

TEST(MatcherTest, MatchingOrderStartsSelective) {
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  QueryGraph q = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  auto order = MatchingOrder(store, rq);
  ASSERT_EQ(order.size(), q.num_vertices());
  // The cheapest starts are the constant literal (v4) and ?p1 (v2), whose
  // candidate estimate is bounded by the literal's degree — both estimate 1.
  EXPECT_TRUE(order[0] == 4u || order[0] == 2u) << order[0];
  // Each later vertex is adjacent to an earlier one.
  for (size_t i = 1; i < order.size(); ++i) {
    bool adjacent = false;
    for (size_t j = 0; j < i; ++j) {
      for (QVertexId nb : q.Neighbors(order[i])) {
        if (nb == order[j]) adjacent = true;
      }
    }
    EXPECT_TRUE(adjacent) << i;
  }
}

TEST(VerifyMatchTest, AcceptsRealRejectsFake) {
  auto dataset = testing::BuildPaperDataset();
  LocalStore store(&dataset->graph());
  QueryGraph q = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  auto matches = MatchQuery(store, rq);
  ASSERT_FALSE(matches.empty());
  for (const Binding& m : matches) {
    EXPECT_TRUE(VerifyMatch(dataset->graph(), rq, m));
  }
  Binding fake = matches[0];
  fake[0] = dataset->dict().Lookup(testing::kPhi4);  // break the match
  EXPECT_FALSE(VerifyMatch(dataset->graph(), rq, fake));
  Binding incomplete = matches[0];
  incomplete[1] = kNullTerm;
  EXPECT_FALSE(VerifyMatch(dataset->graph(), rq, incomplete));
}

class MatcherOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleSweep, MatcherEqualsBruteForce) {
  Rng rng(GetParam());
  // Tiny graphs: brute force is |V|^n.
  auto dataset = testing::RandomDataset(rng, 7, 25, 3);
  for (int i = 0; i < 4; ++i) {
    QueryGraph q = testing::RandomConnectedQuery(
        rng, *dataset, 3, 3 + i % 2, /*constant_prob=*/0.3,
        /*pred_constant_prob=*/0.7);
    ResolvedQuery rq = ResolveQuery(q, dataset->dict());
    EXPECT_EQ(MatcherResults(dataset->graph(), rq),
              BruteForceMatches(dataset->graph(), rq))
        << "seed=" << GetParam() << " query=" << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleSweep,
                         ::testing::Values(7u, 14u, 21u, 28u, 35u, 42u, 49u,
                                           56u));

TEST(ParallelEdgesSatisfiableTest, DirectCases) {
  Dataset data;
  data.AddTripleLexical("<a>", "<p>", "<b>");
  data.AddTripleLexical("<a>", "<q>", "<b>");
  data.AddTripleLexical("<c>", "<r>", "<d>");  // <r> exists, but not on a->b
  data.Finalize();
  TermId a = data.dict().Lookup("<a>");
  TermId b = data.dict().Lookup("<b>");

  QueryGraph q;
  q.AddEdge("?x", "<p>", "?y");   // edge 0: constant p
  q.AddEdge("?x", "?v", "?y");    // edge 1: variable
  q.AddEdge("?x", "<r>", "?y");   // edge 2: constant r (not between a and b)
  ResolvedQuery rq = ResolveQuery(q, data.dict());
  ASSERT_FALSE(rq.impossible);

  EXPECT_TRUE(ParallelEdgesSatisfiable(data.graph(), rq, {0}, a, b));
  EXPECT_TRUE(ParallelEdgesSatisfiable(data.graph(), rq, {0, 1}, a, b));
  EXPECT_FALSE(ParallelEdgesSatisfiable(data.graph(), rq, {2}, a, b));
  // Three demands against two data labels.
  EXPECT_FALSE(ParallelEdgesSatisfiable(data.graph(), rq, {0, 1, 1}, a, b));
  // No edge at all in this direction.
  EXPECT_FALSE(ParallelEdgesSatisfiable(data.graph(), rq, {0}, b, a));
}

}  // namespace
}  // namespace gstored
