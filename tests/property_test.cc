// Randomized property tests of the whole pipeline. The central invariant:
// for any dataset, any vertex-disjoint partitioning, and any connected BGP
// query, the distributed engine (in every optimization mode) returns exactly
// the centralized oracle's matches. Also checks Theorems 3 and 5 on the
// generated LPM populations and the safety of LEC pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "store/matcher.h"
#include "partition/multilevel.h"
#include "tests/test_fixtures.h"

namespace gstored {
namespace {

using ::gstored::testing::RandomAssignment;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;

struct Scenario {
  uint64_t seed;
  size_t vertices;
  size_t edges;
  size_t predicates;
  size_t query_vertices;
  size_t query_edges;
  int fragments;
};

class DistributedEqualsCentralized
    : public ::testing::TestWithParam<Scenario> {};

std::vector<Binding> Oracle(const Dataset& dataset, const QueryGraph& query) {
  LocalStore store(&dataset.graph());
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  std::vector<Binding> matches = MatchQuery(store, rq);
  DedupBindings(&matches);
  return matches;
}

TEST_P(DistributedEqualsCentralized, AllModesAllPartitioners) {
  const Scenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  ASSERT_TRUE(query.IsConnected());
  std::vector<Binding> oracle = Oracle(*dataset, query);

  // Random assignment plus each real partitioner.
  std::vector<Partitioning> partitionings;
  partitionings.push_back(BuildPartitioning(
      *dataset, RandomAssignment(rng, *dataset, s.fragments), s.fragments,
      "random"));
  partitionings.push_back(HashPartitioner().Partition(*dataset, s.fragments));
  partitionings.push_back(
      MetisLikePartitioner().Partition(*dataset, s.fragments));
  partitionings.push_back(
      MultilevelPartitioner().Partition(*dataset, s.fragments));

  for (const Partitioning& partitioning : partitionings) {
    DistributedEngine engine(&partitioning);
    for (EngineMode mode :
         {EngineMode::kBasic, EngineMode::kLecAssembly,
          EngineMode::kLecPruning, EngineMode::kFull}) {
      QueryOutcome outcome = engine.Run({query, mode});
      EXPECT_EQ(outcome.matches, oracle)
          << "strategy=" << partitioning.strategy_name()
          << " mode=" << EngineModeName(mode) << " seed=" << s.seed
          << " query=" << query.ToString();
      // Thm. 3 corollary: feature-level joinability never produced a
      // binding conflict during assembly.
      EXPECT_EQ(outcome.stats.assembly.binding_conflicts, 0u)
          << "seed=" << s.seed << " mode=" << EngineModeName(mode);
    }
  }
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  uint64_t seed = 20260611;
  // A spread of graph densities, query shapes and fragment counts.
  for (int i = 0; i < 18; ++i) {
    Scenario s;
    s.seed = seed + static_cast<uint64_t>(i) * 7919;
    s.vertices = 20 + (i % 5) * 12;
    s.edges = 60 + (i % 7) * 30;
    s.predicates = 3 + (i % 4);
    s.query_vertices = 3 + (i % 3);
    s.query_edges = s.query_vertices - 1 + (i % 3);
    s.fragments = 2 + (i % 3);
    scenarios.push_back(s);
  }
  // Larger query shapes: 6-vertex trees and cyclic 5-vertex patterns, and a
  // many-fragment case, at moderate data sizes.
  for (int i = 0; i < 6; ++i) {
    Scenario s;
    s.seed = seed ^ (0xbeef00 + static_cast<uint64_t>(i) * 104729);
    s.vertices = 24 + i * 6;
    s.edges = 70 + i * 20;
    s.predicates = 4;
    s.query_vertices = 5 + (i % 2);
    s.query_edges = s.query_vertices - 1 + (i % 3);
    s.fragments = 2 + (i % 5);
    scenarios.push_back(s);
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedEqualsCentralized,
                         ::testing::ValuesIn(MakeScenarios()));

/// Pivoted queries (test_fixtures.h) are drawn around a walk of the data,
/// so unlike most random queries above they have answers, and the walk is
/// one of them: every mode at 1 and 4 threads must return it, and return
/// exactly the centralized answer, over random and hash 3-fragment
/// partitionings.
class DistributedContainsPivot : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributedContainsPivot, AllModesBothThreadCounts) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  auto dataset = RandomDataset(rng, 20 + seed % 25, 60 + (seed * 13) % 90,
                               2 + seed % 4);
  testing::Pivoted pivoted =
      testing::PivotedQuery(rng, *dataset, 2 + seed % 5);
  const QueryGraph& query = pivoted.query;
  std::vector<Binding> oracle = Oracle(*dataset, query);
  ASSERT_TRUE(std::binary_search(oracle.begin(), oracle.end(), pivoted.pivot))
      << "seed=" << seed << " query=" << query.ToString();
  RecordProperty("answers", static_cast<int>(oracle.size()));

  std::vector<Partitioning> partitionings;
  partitionings.push_back(BuildPartitioning(
      *dataset, RandomAssignment(rng, *dataset, 3), 3, "random"));
  partitionings.push_back(HashPartitioner().Partition(*dataset, 3));
  for (const Partitioning& partitioning : partitionings) {
    for (size_t threads : {1u, 4u}) {
      EngineOptions options;
      options.num_threads = threads;
      DistributedEngine engine(&partitioning, options);
      for (EngineMode mode :
           {EngineMode::kBasic, EngineMode::kLecAssembly,
            EngineMode::kLecPruning, EngineMode::kFull}) {
        QueryOutcome outcome = engine.Run({query, mode});
        EXPECT_EQ(outcome.matches, oracle)
            << "strategy=" << partitioning.strategy_name()
            << " threads=" << threads << " mode=" << EngineModeName(mode)
            << " seed=" << seed << " query=" << query.ToString();
        EXPECT_TRUE(outcome.exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedContainsPivot,
                         ::testing::Range<uint64_t>(1, 25));

TEST(RandomConnectedQueryTest, EqualSeedsGiveEqualQueryText) {
  // Predicate variables are numbered within each query, so the same seed
  // gives the same query however many queries the process drew before.
  auto generate = [](uint64_t seed) {
    Rng rng(seed);
    auto dataset = RandomDataset(rng, 12, 40, 3);
    return RandomConnectedQuery(rng, *dataset, 4, 5, 0.3,
                                /*pred_constant_prob=*/0.0)
        .ToString();
  };
  const std::string first = generate(17);
  ASSERT_NE(first.find("?p0"), std::string::npos) << first;
  EXPECT_EQ(generate(17), first);
}

// ---------------------------------------------------------------------------
// Theorem-level properties on generated LPM populations.

class LpmTheoremTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LpmTheoremTest, JoinableFeaturesImplyCompatibleBindings) {
  Rng rng(GetParam());
  auto dataset = RandomDataset(rng, 30, 110, 4);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, 4, 4);
  Partitioning partitioning = BuildPartitioning(
      *dataset, RandomAssignment(rng, *dataset, 3), 3, "random");
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  std::vector<LocalPartialMatch> all;
  for (const Fragment& fragment : partitioning.fragments()) {
    LocalStore store(&fragment.graph());
    auto lpms = EnumerateLocalPartialMatches(fragment, store, rq);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }

  size_t joinable_pairs = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      if (!FeaturesJoinable(all[i].sign, all[i].crossing, all[j].sign,
                            all[j].crossing)) {
        continue;
      }
      ++joinable_pairs;
      // Thm. 3: joinable features => the underlying LPMs can join, i.e.
      // their bindings never conflict.
      Binding merged;
      EXPECT_TRUE(MergeBindings(all[i].binding, all[j].binding, &merged))
          << "seed=" << GetParam();
      // Thm. 5 contrapositive: joinable pairs have different LECSigns.
      EXPECT_NE(all[i].sign, all[j].sign);
      // Def. 9 condition 1 is implied: joinable pairs span fragments.
      EXPECT_NE(all[i].fragment, all[j].fragment);
    }
  }
  // The sweep should actually exercise joins for most seeds; tolerate none.
  (void)joinable_pairs;
}

TEST_P(LpmTheoremTest, PruningNeverDropsContributingLpms) {
  Rng rng(GetParam() ^ 0xabcdef);
  auto dataset = RandomDataset(rng, 28, 100, 4);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, 4, 4);
  Partitioning partitioning = BuildPartitioning(
      *dataset, RandomAssignment(rng, *dataset, 3), 3, "random");
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  std::vector<LocalPartialMatch> all;
  for (const Fragment& fragment : partitioning.fragments()) {
    LocalStore store(&fragment.graph());
    auto lpms = EnumerateLocalPartialMatches(fragment, store, rq);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }

  std::vector<Binding> unpruned = LecAssembly(all, query.num_vertices());
  DedupBindings(&unpruned);

  LecFeatureSet set = ComputeLecFeatures(all);
  PruneResult prune = LecFeaturePruning(set.features, query.num_vertices());
  std::vector<LocalPartialMatch> surviving;
  for (size_t i = 0; i < all.size(); ++i) {
    if (prune.survives[set.feature_of_lpm[i]]) surviving.push_back(all[i]);
  }
  std::vector<Binding> pruned_assembly =
      LecAssembly(surviving, query.num_vertices());
  DedupBindings(&pruned_assembly);

  EXPECT_EQ(pruned_assembly, unpruned) << "seed=" << GetParam();
}

TEST_P(LpmTheoremTest, EquivalentLpmsShareExactlyOneFeature) {
  Rng rng(GetParam() ^ 0x5555aaaa);
  auto dataset = RandomDataset(rng, 26, 90, 3);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, 4, 4);
  Partitioning partitioning = BuildPartitioning(
      *dataset, RandomAssignment(rng, *dataset, 2), 2, "random");
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  for (const Fragment& fragment : partitioning.fragments()) {
    LocalStore store(&fragment.graph());
    auto lpms = EnumerateLocalPartialMatches(fragment, store, rq);
    LecFeatureSet set = ComputeLecFeatures(lpms);
    // Thm. 1: equal crossing maps (within one fragment) <=> equal features;
    // the feature determines sign and crossing exactly.
    for (size_t i = 0; i < lpms.size(); ++i) {
      for (size_t j = i + 1; j < lpms.size(); ++j) {
        bool same_crossing = lpms[i].crossing == lpms[j].crossing;
        bool same_feature = set.feature_of_lpm[i] == set.feature_of_lpm[j];
        EXPECT_EQ(same_crossing, same_feature);
        if (same_feature) {
          EXPECT_EQ(lpms[i].sign, lpms[j].sign);  // Thm. 1's consequence
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmTheoremTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace gstored
