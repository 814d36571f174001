// Unit tests of the statistics subsystem: per-predicate cardinalities,
// fan-out histograms and characteristic sets are cross-checked against a
// brute-force recomputation from the raw triple list on random graphs; the
// selectivity estimator's cardinality must upper-bound the materialized
// candidate sets; and the cost-model matching order must never enumerate
// more intermediate results than the greedy heuristic on the shared
// reference scenarios and the LUBM query suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "store/local_store.h"
#include "store/matcher.h"
#include "store/stats.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;
using ::gstored::testing::ReferenceScenario;

/// Brute-force statistics from the raw triple list.
struct BruteStats {
  std::map<TermId, size_t> triples;
  std::map<TermId, std::set<TermId>> subjects;
  std::map<TermId, std::set<TermId>> objects;
  // subject -> (out-predicate -> triple count)
  std::map<TermId, std::map<TermId, size_t>> subject_preds;
};

BruteStats BruteForceStats(const RdfGraph& g) {
  BruteStats b;
  for (const Triple& t : g.triples()) {
    ++b.triples[t.predicate];
    b.subjects[t.predicate].insert(t.subject);
    b.objects[t.predicate].insert(t.object);
    ++b.subject_preds[t.subject][t.predicate];
  }
  return b;
}

class StatsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsSweep, CardinalitiesMatchBruteForce) {
  Rng rng(GetParam());
  auto dataset = RandomDataset(rng, 20 + GetParam() % 13, 80, 4);
  const RdfGraph& g = dataset->graph();
  GraphStatistics stats(&g);
  BruteStats brute = BruteForceStats(g);

  for (TermId p : g.predicates()) {
    EXPECT_EQ(stats.TripleCount(p), brute.triples[p]) << "p=" << p;
    EXPECT_EQ(stats.DistinctSubjects(p), brute.subjects[p].size());
    EXPECT_EQ(stats.DistinctObjects(p), brute.objects[p].size());
    EXPECT_DOUBLE_EQ(
        stats.AvgOutFanout(p),
        static_cast<double>(brute.triples[p]) /
            static_cast<double>(brute.subjects[p].size()));
    EXPECT_DOUBLE_EQ(
        stats.AvgInFanout(p),
        static_cast<double>(brute.triples[p]) /
            static_cast<double>(brute.objects[p].size()));
  }
  // Unused predicate ids report zeros, not garbage.
  TermId unused = g.predicates().back() + 1000;
  EXPECT_EQ(stats.TripleCount(unused), 0u);
  EXPECT_EQ(stats.AvgOutFanout(unused), 0.0);
  EXPECT_EQ(stats.Histogram(unused, EdgeDir::kOut), nullptr);
}

TEST_P(StatsSweep, HistogramsCoverEverySource) {
  Rng rng(GetParam());
  auto dataset = RandomDataset(rng, 18, 90, 3);
  const RdfGraph& g = dataset->graph();
  GraphStatistics stats(&g);
  BruteStats brute = BruteForceStats(g);

  for (TermId p : g.predicates()) {
    const FanoutHistogram* out = stats.Histogram(p, EdgeDir::kOut);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->total, brute.subjects[p].size());
    size_t bucket_sum = 0;
    for (uint32_t c : out->counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, out->total);
    // The brute-force max fan-out of one subject through p.
    uint32_t max_fanout = 0;
    for (const auto& [s, preds] : brute.subject_preds) {
      auto it = preds.find(p);
      if (it != preds.end()) {
        max_fanout = std::max(max_fanout, static_cast<uint32_t>(it->second));
      }
    }
    EXPECT_EQ(out->max_fanout, max_fanout);
    // Quantiles are monotone and bounded by the max.
    EXPECT_LE(out->Quantile(0.5), out->Quantile(1.0));
    EXPECT_LE(out->Quantile(1.0), static_cast<double>(max_fanout));

    const FanoutHistogram* in = stats.Histogram(p, EdgeDir::kIn);
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->total, brute.objects[p].size());
  }
}

TEST_P(StatsSweep, CharacteristicSetsMatchBruteForce) {
  Rng rng(GetParam());
  auto dataset = RandomDataset(rng, 22, 70, 4);
  const RdfGraph& g = dataset->graph();
  GraphStatistics stats(&g);
  BruteStats brute = BruteForceStats(g);

  // Rebuild (predicate set -> subject count) by hand.
  std::map<std::vector<TermId>, uint32_t> expected;
  for (const auto& [s, preds] : brute.subject_preds) {
    std::vector<TermId> key;
    for (const auto& [p, count] : preds) key.push_back(p);
    ++expected[key];
  }

  ASSERT_EQ(stats.characteristic_sets().size(), expected.size());
  for (const CharacteristicSet& cs : stats.characteristic_sets()) {
    auto it = expected.find(cs.predicates);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(cs.count, it->second);
  }

  // SubjectsWithAllOut is exact for arbitrary predicate subsets.
  const std::vector<TermId>& preds = g.predicates();
  for (size_t a = 0; a < preds.size(); ++a) {
    for (size_t b = a; b < preds.size(); ++b) {
      std::vector<TermId> probe = {preds[a], preds[b]};
      size_t brute_count = 0;
      for (const auto& [s, sp] : brute.subject_preds) {
        if (sp.count(preds[a]) && sp.count(preds[b])) ++brute_count;
      }
      EXPECT_DOUBLE_EQ(stats.SubjectsWithAllOut(probe),
                       static_cast<double>(brute_count))
          << preds[a] << "," << preds[b];
    }
  }
}

/// The predicate -> characteristic-set inverted index (the probe now scans
/// only the rarest queried predicate's list) must be invisible: the
/// superset probe agrees with a linear scan over *all* distinct sets, for
/// random probes of every size including predicates the graph never uses.
TEST_P(StatsSweep, SupersetProbesMatchLinearScan) {
  Rng rng(GetParam() * 31 + 7);
  auto dataset = RandomDataset(rng, 24, 85, 5);
  const RdfGraph& g = dataset->graph();
  GraphStatistics stats(&g);

  auto linear_subjects = [&](const std::vector<TermId>& probe) {
    std::vector<TermId> sorted = probe;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    double subjects = 0.0;
    for (const CharacteristicSet& cs : stats.characteristic_sets()) {
      if (std::includes(cs.predicates.begin(), cs.predicates.end(),
                        sorted.begin(), sorted.end())) {
        subjects += static_cast<double>(cs.count);
      }
    }
    return subjects;
  };
  const std::vector<TermId>& preds = g.predicates();
  TermId unused = preds.back() + 1000;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<TermId> probe;
    size_t size = 1 + rng.Next() % 3;
    for (size_t i = 0; i < size; ++i) {
      // 1-in-8 probes include a predicate no subject carries.
      probe.push_back(rng.Next() % 8 == 0
                          ? unused
                          : preds[rng.Next() % preds.size()]);
    }
    EXPECT_DOUBLE_EQ(stats.SubjectsWithAllOut(probe), linear_subjects(probe));
  }
  // The empty probe counts every subject carrying any out-predicate.
  EXPECT_DOUBLE_EQ(stats.SubjectsWithAllOut({}), linear_subjects({}));

  // The index itself lists exactly the containing sets, in ascending order.
  for (TermId p : preds) {
    std::vector<uint32_t> expected;
    const auto& sets = stats.characteristic_sets();
    for (uint32_t i = 0; i < sets.size(); ++i) {
      if (std::binary_search(sets[i].predicates.begin(),
                             sets[i].predicates.end(), p)) {
        expected.push_back(i);
      }
    }
    auto indexed = stats.CharacteristicSetsWith(p);
    EXPECT_EQ(std::vector<uint32_t>(indexed.begin(), indexed.end()), expected)
        << "p=" << p;
  }
  EXPECT_TRUE(stats.CharacteristicSetsWith(unused).empty());
}

TEST_P(StatsSweep, VertexCardinalityUpperBoundsCandidates) {
  Rng rng(GetParam());
  auto dataset = RandomDataset(rng, 20, 75, 3);
  LocalStore store(&dataset->graph());
  for (int i = 0; i < 4; ++i) {
    QueryGraph q = RandomConnectedQuery(rng, *dataset, 3, 4);
    ResolvedQuery rq = ResolveQuery(q, dataset->dict());
    if (rq.impossible) continue;
    SelectivityEstimator estimator(&store.stats(), &rq);
    for (QVertexId v = 0; v < q.num_vertices(); ++v) {
      double bound = estimator.VertexCardinality(v);
      size_t actual = store.Candidates(rq, v).size();
      EXPECT_GE(bound, static_cast<double>(actual))
          << "v=" << v << " query: " << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

/// The p90 hub penalty in ExtensionCost: two predicates with identical
/// average out fan-out, one uniform and one hub-dominated (p90 > 4x the
/// mean), must no longer price identically — the expansion through the
/// hub-heavy predicate costs more, because heavy sources contribute
/// proportionally many prefix rows.
TEST(SkewPenalty, HubDominatedPredicateCostsMoreThanUniformTwin) {
  auto dataset = std::make_unique<Dataset>();
  auto v = [](const char* tag, size_t i) {
    return "<http://skew.org/" + std::string(tag) + std::to_string(i) + ">";
  };
  // uni: 8 subjects with 7 objects, 2 with 8 -> avg 7.2, p90 = max = 8.
  for (size_t s = 0; s < 10; ++s) {
    size_t fanout = s < 8 ? 7 : 8;
    for (size_t o = 0; o < fanout; ++o) {
      dataset->AddTripleLexical(v("us", s), "<http://skew.org/uni>",
                                v("uo", s * 100 + o));
    }
  }
  // hub: 8 subjects with 1 object, 2 hubs with 32 -> avg 7.2, p90 = 32.
  for (size_t s = 0; s < 10; ++s) {
    size_t fanout = s < 8 ? 1 : 32;
    for (size_t o = 0; o < fanout; ++o) {
      dataset->AddTripleLexical(v("hs", s), "<http://skew.org/hub>",
                                v("ho", s * 100 + o));
    }
  }
  dataset->Finalize();
  GraphStatistics stats(&dataset->graph());

  TermId uni = dataset->dict().Lookup("<http://skew.org/uni>");
  TermId hub = dataset->dict().Lookup("<http://skew.org/hub>");
  EXPECT_DOUBLE_EQ(stats.AvgOutFanout(uni), stats.AvgOutFanout(hub));

  QueryGraph q;
  q.AddVertex("?a");
  q.AddVertex("?b");
  q.AddVertex("?c");
  q.AddEdge("?a", "<http://skew.org/uni>", "?b");
  q.AddEdge("?a", "<http://skew.org/hub>", "?c");
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  SelectivityEstimator estimator(&stats, &rq);

  std::vector<bool> placed(q.num_vertices(), false);
  placed[0] = true;  // ?a
  double uniform_cost = estimator.ExtensionCost(1, placed);
  double hub_cost = estimator.ExtensionCost(2, placed);
  // The uniform twin stays at its exact average; the hub twin is inflated
  // toward its p90 but never past it.
  EXPECT_DOUBLE_EQ(uniform_cost, stats.AvgOutFanout(uni));
  EXPECT_GT(hub_cost, uniform_cost);
  EXPECT_LT(hub_cost, 32.0);
}

// ---------------------------------------------------------------------------
// Matching-order quality
// ---------------------------------------------------------------------------

class OrderingQuality : public ::testing::TestWithParam<ReferenceScenario> {};

TEST_P(OrderingQuality, CostModelNeverWorseThanGreedy) {
  const ReferenceScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  LocalStore store(&dataset->graph());
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  auto cost_order = MatchingOrder(store, rq);
  auto greedy_order = MatchingOrderGreedy(store, rq);
  size_t cost_nodes = CountIntermediateResults(store, rq, cost_order);
  size_t greedy_nodes = CountIntermediateResults(store, rq, greedy_order);
  EXPECT_LE(cost_nodes, greedy_nodes) << "query: " << query.ToString();

  // Both orders enumerate the same match set.
  MatchOptions with, without;
  without.use_statistics = false;
  auto sorted = [](std::vector<Binding> m) {
    std::sort(m.begin(), m.end());
    return m;
  };
  EXPECT_EQ(sorted(MatchQuery(store, rq, with)),
            sorted(MatchQuery(store, rq, without)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderingQuality,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

TEST(OrderingQualityLubm, CostModelNeverWorseAndSometimesBetter) {
  LubmConfig config;
  config.universities = 3;
  Workload workload = MakeLubmWorkload(config);
  LocalStore store(&workload.dataset->graph());

  bool strictly_better = false;
  for (const BenchmarkQuery& wq : workload.queries) {
    ResolvedQuery rq = ResolveQuery(wq.query, workload.dataset->dict());
    auto cost_order = MatchingOrder(store, rq);
    auto greedy_order = MatchingOrderGreedy(store, rq);
    size_t cost_nodes = CountIntermediateResults(store, rq, cost_order);
    size_t greedy_nodes = CountIntermediateResults(store, rq, greedy_order);
    EXPECT_LE(cost_nodes, greedy_nodes) << wq.name;
    if (cost_nodes < greedy_nodes) strictly_better = true;
  }
  // The cost model must genuinely separate some multi-predicate query, not
  // just reproduce the greedy order everywhere.
  EXPECT_TRUE(strictly_better);
}

}  // namespace
}  // namespace gstored
