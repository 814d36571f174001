// Unit tests for the store layer: candidate computation, the vertex
// signature filter, the backtracking matcher (checked against a brute-force
// oracle on small graphs), parallel-edge injectivity, variable predicates,
// self-loops, match limits and VerifyMatch.

#include <gtest/gtest.h>

#include <set>

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
  auto candidates = store.Candidates(rq, q.AddVertex("?p1"));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], dataset->dict().Lookup(testing::kPhi1));
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
