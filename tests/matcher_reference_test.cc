// Cross-checks the CSR-backed matcher against a naive reference matcher:
// the reference enumerates every total assignment of query vertices to graph
// vertices and keeps those that satisfy Def. 3, checked on the raw triple
// list with an explicit distinct-label search. It calls nothing in
// store/matcher, so a fault in the search's label-injectivity check cannot
// pass both sides. Any divergence in the predicate-grouped expansion, the
// pivot intersection, or the scratch-buffer reuse shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "core/engine.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace gstored {
namespace {

using ::gstored::testing::PairLabels;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;

/// Def. 3 on the raw triple list: every constant vertex binds its own term,
/// and the query edges of each directed pair map onto that pair's triples
/// with pairwise-distinct labels, a constant predicate naming its triple's
/// label.
bool IsMatch(const PairLabels& labels, const ResolvedQuery& rq,
             const Binding& binding) {
  const QueryGraph& q = *rq.query;
  for (QVertexId v = 0; v < q.num_vertices(); ++v) {
    if (rq.vertex_term[v] != kNullTerm && binding[v] != rq.vertex_term[v]) {
      return false;
    }
  }
  std::map<std::pair<QVertexId, QVertexId>, std::vector<QEdgeId>> groups;
  for (QEdgeId eid = 0; eid < q.num_edges(); ++eid) {
    groups[{q.edge(eid).from, q.edge(eid).to}].push_back(eid);
  }
  for (const auto& [pair, group] : groups) {
    auto it = labels.find({binding[pair.first], binding[pair.second]});
    if (it == labels.end() ||
        !testing::DistinctLabels(rq, group, it->second)) {
      return false;
    }
  }
  return true;
}

/// Enumerates all |V|^n assignments and filters with IsMatch.
std::vector<Binding> NaiveMatch(const Dataset& dataset,
                                const QueryGraph& query) {
  const RdfGraph& g = dataset.graph();
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  size_t n = query.num_vertices();
  std::vector<Binding> results;
  if (rq.impossible || n == 0) return results;

  const PairLabels labels = testing::LabelsByPair(g);
  const std::vector<TermId>& verts = g.vertices();
  Binding binding(n, kNullTerm);
  std::vector<size_t> idx(n, 0);
  while (true) {
    for (size_t v = 0; v < n; ++v) binding[v] = verts[idx[v]];
    if (IsMatch(labels, rq, binding)) results.push_back(binding);
    size_t pos = 0;
    while (pos < n && ++idx[pos] == verts.size()) idx[pos++] = 0;
    if (pos == n) break;
  }
  return results;
}

std::vector<Binding> SortedMatches(std::vector<Binding> matches) {
  DedupBindings(&matches);
  std::sort(matches.begin(), matches.end());
  return matches;
}

using ::gstored::testing::ReferenceScenario;

class MatcherMatchesReference
    : public ::testing::TestWithParam<ReferenceScenario> {};

TEST_P(MatcherMatchesReference, SameMatchSet) {
  const ReferenceScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  ASSERT_TRUE(query.IsConnected());

  LocalStore store(&dataset->graph());
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  auto fast = SortedMatches(MatchQuery(store, rq));
  auto naive = SortedMatches(NaiveMatch(*dataset, query));
  EXPECT_EQ(fast, naive) << "query: " << query.ToString();
}

// Kept small: the reference is O(|V|^n). The scenario table lives in
// test_fixtures.h, shared with the ordering-quality suite.
INSTANTIATE_TEST_SUITE_P(
    Sweep, MatcherMatchesReference,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

/// Pivoted queries (test_fixtures.h) answer the empty-answer gap of the
/// table above: each query is drawn around a walk of the data, so the naive
/// matcher and the store's must both find at least that walk. Sizes derive
/// from the seed; walks of at most 3 triples keep |V|^n small.
class MatcherMatchesReferencePivoted
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherMatchesReferencePivoted, SameMatchSetContainingThePivot) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  auto dataset = RandomDataset(rng, 7 + seed % 5, 20 + (seed * 7) % 30,
                               1 + seed % 4);
  testing::Pivoted pivoted =
      testing::PivotedQuery(rng, *dataset, 1 + seed % 3);
  const QueryGraph& query = pivoted.query;
  ASSERT_TRUE(query.IsConnected());

  LocalStore store(&dataset->graph());
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  auto fast = SortedMatches(MatchQuery(store, rq));
  auto naive = SortedMatches(NaiveMatch(*dataset, query));
  EXPECT_EQ(fast, naive) << "query: " << query.ToString();
  EXPECT_TRUE(std::binary_search(naive.begin(), naive.end(), pivoted.pivot))
      << "query: " << query.ToString();
  RecordProperty("answers", static_cast<int>(naive.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherMatchesReferencePivoted,
                         ::testing::Range<uint64_t>(1, 25));

/// Every suite over the scenario table compares answers, so none of its
/// queries may be unsatisfiable before any data is read: an impossible
/// query makes every oracle comparison an empty-set match.
TEST(ReferenceScenarios, NoQueryIsStaticallyImpossible) {
  for (const ReferenceScenario& s : ::gstored::testing::kReferenceScenarios) {
    Rng rng(s.seed);
    auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
    QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                            s.query_edges);
    EXPECT_FALSE(ResolveQuery(query, dataset->dict()).impossible)
        << "seed " << s.seed << ": " << query.ToString();
  }
}

/// The pivot intersection must also agree with the graph's raw ranges.
TEST(PivotDomainTest, MatchesManualIntersection) {
  Rng rng(99);
  auto dataset = RandomDataset(rng, 20, 80, 3);
  const RdfGraph& g = dataset->graph();
  TermId pred = g.predicates()[0];
  for (TermId a : g.vertices()) {
    for (TermId b : g.vertices()) {
      // Candidates u with a -pred-> u and u -> b (any label).
      PivotEdge pivots[2] = {{a, pred, /*v_is_subject=*/false},
                             {b, kNullTerm, /*v_is_subject=*/true}};
      std::vector<TermId> scratch;
      auto domain = PivotDomain(g, pivots, &scratch);
      std::vector<TermId> expect;
      for (const HalfEdge& h : g.OutEdges(a, pred)) {
        if (g.HasAnyEdge(h.neighbor, b)) expect.push_back(h.neighbor);
      }
      ASSERT_EQ(std::vector<TermId>(domain.begin(), domain.end()), expect);
    }
  }
}

}  // namespace
}  // namespace gstored
