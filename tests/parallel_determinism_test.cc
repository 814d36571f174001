// Determinism of the worker-pool execution layer: the parallel matcher,
// LPM enumerator, LEC pruning and LEC assembly join must produce
// byte-identical outputs (same elements, same order) for every thread
// count — including end to end through the engine — and the indexed group
// join graph must equal the all-pairs reference construction on random LPM
// and feature sets.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "partition/partitioners.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

using ::gstored::testing::EnumerateAllLpms;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;

/// The same randomized scenarios the matcher reference test sweeps.
using DetScenario = ::gstored::testing::ReferenceScenario;

class ParallelDeterminism : public ::testing::TestWithParam<DetScenario> {
 protected:
  /// One pool for all thread counts; 7 workers cover the 8-slot case even
  /// on single-core CI machines (the pool parks idle workers).
  ThreadPool pool_{7};
};

TEST_P(ParallelDeterminism, MatchQueryByteIdentical) {
  const DetScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  LocalStore store(&dataset->graph());
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  auto baseline = MatchQuery(store, rq);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    MatchOptions options;
    options.num_threads = threads;
    options.pool = &pool_;
    EXPECT_EQ(MatchQuery(store, rq, options), baseline)
        << "threads=" << threads << " query: " << query.ToString();
  }
}

TEST_P(ParallelDeterminism, LpmEnumerationAndAssemblyByteIdentical) {
  const DetScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  auto enumerate_all = [&](size_t threads) {
    std::vector<LocalPartialMatch> lpms;
    for (const Fragment& fragment : partitioning.fragments()) {
      LocalStore store(&fragment.graph());
      EnumerateOptions options;
      options.num_threads = threads;
      options.pool = &pool_;
      auto fragment_lpms =
          EnumerateLocalPartialMatches(fragment, store, rq, options);
      lpms.insert(lpms.end(),
                  std::make_move_iterator(fragment_lpms.begin()),
                  std::make_move_iterator(fragment_lpms.end()));
    }
    return lpms;
  };

  auto baseline = enumerate_all(1);
  auto baseline_matches = LecAssembly(baseline, query.num_vertices());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    auto lpms = enumerate_all(threads);
    EXPECT_EQ(lpms, baseline) << "threads=" << threads;
    EXPECT_EQ(LecAssembly(lpms, query.num_vertices()), baseline_matches)
        << "threads=" << threads;
  }
}

TEST_P(ParallelDeterminism, AssemblyByteIdentical) {
  const DetScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  std::vector<LocalPartialMatch> lpms = EnumerateAllLpms(partitioning, rq);

  AssemblyStats baseline_stats;
  auto baseline = LecAssembly(lpms, query.num_vertices(), &baseline_stats);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AssemblyOptions options;
    options.num_threads = threads;
    options.pool = &pool_;
    options.min_seeds_per_slot = 1;  // force the pool path on small groups
    AssemblyStats stats;
    EXPECT_EQ(LecAssembly(lpms, query.num_vertices(), options, &stats),
              baseline)
        << "threads=" << threads << " query: " << query.ToString();
    // The per-slot counters must sum to the serial totals: every counted
    // event belongs to exactly one seed's DFS.
    EXPECT_EQ(stats.join_attempts, baseline_stats.join_attempts)
        << "threads=" << threads;
    EXPECT_EQ(stats.intermediate_results, baseline_stats.intermediate_results)
        << "threads=" << threads;
  }
}

TEST_P(ParallelDeterminism, PruningByteIdentical) {
  const DetScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  std::vector<LocalPartialMatch> lpms = EnumerateAllLpms(partitioning, rq);
  LecFeatureSet set = ComputeLecFeatures(lpms);

  PruneResult baseline =
      LecFeaturePruning(set.features, query.num_vertices());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    PruneOptions options;
    options.num_threads = threads;
    options.pool = &pool_;
    options.min_seeds_per_slot = 1;  // force the pool path on small groups
    PruneResult result =
        LecFeaturePruning(set.features, query.num_vertices(), options);
    EXPECT_EQ(result.survives, baseline.survives)
        << "threads=" << threads << " query: " << query.ToString();
    EXPECT_EQ(result.surviving_features, baseline.surviving_features)
        << "threads=" << threads;
    EXPECT_EQ(result.bailed_out, baseline.bailed_out)
        << "threads=" << threads;
    EXPECT_EQ(result.num_groups, baseline.num_groups)
        << "threads=" << threads;
    EXPECT_EQ(result.num_join_graph_edges, baseline.num_join_graph_edges)
        << "threads=" << threads;
    // On non-bailed runs every seed DFS runs to completion, so the per-slot
    // probe counters sum to the serial totals. (A bailed run truncates
    // in-flight walks at a nondeterministic point; only the all-survive
    // result is pinned there.)
    if (!baseline.bailed_out) {
      EXPECT_EQ(result.join_attempts, baseline.join_attempts)
          << "threads=" << threads;
    }
  }
}

TEST_P(ParallelDeterminism, EngineResultsByteIdenticalAcrossThreadCounts) {
  const DetScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);

  for (EngineMode mode : {EngineMode::kLecAssembly, EngineMode::kFull}) {
    std::vector<Binding> baseline;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      DistributedEngine engine(&partitioning, options);
      std::vector<Binding> result = engine.Run({query, mode}).matches;
      if (threads == 1) {
        baseline = std::move(result);
      } else {
        EXPECT_EQ(result, baseline)
            << "threads=" << threads << " mode=" << EngineModeName(mode);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDeterminism,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

/// Reference all-pairs construction of the group join graph: every
/// cross-group item pair is probed until the group pair is confirmed
/// joinable, with no index. The production graph must equal it.
template <typename Item>
std::vector<std::vector<uint32_t>> AllPairsJoinGraph(
    const std::vector<Item>& items,
    const std::vector<std::vector<uint32_t>>& groups, JoinGraphStats* stats) {
  const size_t num_groups = groups.size();
  std::vector<std::vector<uint32_t>> adjacency(num_groups);
  for (uint32_t a = 0; a < num_groups; ++a) {
    for (uint32_t b = a + 1; b < num_groups; ++b) {
      bool joinable = false;
      for (uint32_t ia : groups[a]) {
        for (uint32_t ib : groups[b]) {
          ++stats->join_attempts;
          if (FeaturesJoinable(items[ia].sign, items[ia].crossing,
                               items[ib].sign, items[ib].crossing)) {
            joinable = true;
            break;
          }
        }
        if (joinable) break;
      }
      if (joinable) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
        ++stats->num_edges;
      }
    }
  }
  return adjacency;
}

/// The indexed group join graph must be exactly the all-pairs graph — same
/// adjacency lists, same edge count — with no more probes.
TEST(GroupJoinGraphTest, IndexedEqualsAllPairsOnRandomLpmSets) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919);
    auto dataset = RandomDataset(rng, 14, 45, 3);
    QueryGraph query = RandomConnectedQuery(rng, *dataset, 4, 5);
    Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
    ResolvedQuery rq = ResolveQuery(query, dataset->dict());

    std::vector<LocalPartialMatch> lpms =
        EnumerateAllLpms(partitioning, rq);
    auto groups = GroupBySign(lpms);

    JoinGraphStats indexed_stats;
    JoinGraphStats all_pairs_stats;
    auto indexed =
        CrossingIndex<LocalPartialMatch>(lpms, groups).JoinGraph(
            &indexed_stats);
    auto all_pairs = AllPairsJoinGraph(lpms, groups, &all_pairs_stats);
    EXPECT_EQ(indexed, all_pairs) << "seed=" << seed;
    EXPECT_EQ(indexed_stats.num_edges, all_pairs_stats.num_edges)
        << "seed=" << seed;
    EXPECT_LE(indexed_stats.join_attempts, all_pairs_stats.join_attempts)
        << "seed=" << seed;
  }
}

/// Same equivalence for the pruning side: over LEC features, the indexed
/// join graph — the one LecFeaturePruning builds — and the all-pairs
/// reference must yield the same adjacency with no more probes. (The
/// surviving set itself is pinned exactly by the survivor oracle in
/// assembly_reference_test.)
TEST(FeatureJoinGraphTest, IndexedEqualsAllPairsOnRandomFeatureSets) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 6151);
    auto dataset = RandomDataset(rng, 14, 45, 3);
    QueryGraph query = RandomConnectedQuery(rng, *dataset, 4, 5);
    Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
    ResolvedQuery rq = ResolveQuery(query, dataset->dict());

    std::vector<LocalPartialMatch> lpms =
        EnumerateAllLpms(partitioning, rq);
    LecFeatureSet set = ComputeLecFeatures(lpms);
    auto groups = GroupBySign(set.features);

    JoinGraphStats indexed_stats;
    JoinGraphStats all_pairs_stats;
    auto indexed = CrossingIndex<LecFeature>(set.features, groups)
                       .JoinGraph(&indexed_stats);
    auto all_pairs =
        AllPairsJoinGraph(set.features, groups, &all_pairs_stats);
    EXPECT_EQ(indexed, all_pairs) << "seed=" << seed;
    EXPECT_EQ(indexed_stats.num_edges, all_pairs_stats.num_edges)
        << "seed=" << seed;
    EXPECT_LE(indexed_stats.join_attempts, all_pairs_stats.join_attempts)
        << "seed=" << seed;

    PruneResult prune = LecFeaturePruning(set.features, query.num_vertices());
    EXPECT_EQ(prune.num_groups, groups.size()) << "seed=" << seed;
    EXPECT_EQ(prune.num_join_graph_edges, all_pairs_stats.num_edges)
        << "seed=" << seed;
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<size_t> max_slot{0};
  pool.ParallelFor(kN, 4, [&](size_t i, size_t slot) {
    visits[i].fetch_add(1);
    size_t seen = max_slot.load();
    while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
    }
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_LT(max_slot.load(), 4u);
}

TEST(ThreadPoolTest, OneSlotRunsInlineInIndexOrder) {
  // At one slot the free ParallelFor needs no pool: it loops on the calling
  // thread, in index order, always with slot 0.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(nullptr, 6, 1, [&](size_t i, size_t slot) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));

  // ParallelForConcat's result is the same at 1 slot and at 4 slots.
  ThreadPool pool(3);
  auto fill = [](size_t i, size_t /*slot*/, std::vector<size_t>* out) {
    for (size_t k = 0; k < i % 4; ++k) out->push_back(i * 10 + k);
  };
  const std::vector<size_t> one = ParallelForConcat<size_t>(nullptr, 200, 1,
                                                            fill);
  EXPECT_EQ(one.size(), 300u);
  EXPECT_EQ(ParallelForConcat<size_t>(&pool, 200, 4, fill), one);
}

TEST(ThreadPoolTest, NestedParallelForCompletesOnAnyPoolSize) {
  // A participant waits only for indices that running participants have
  // claimed, so a pool task may call ParallelFor on its own pool — as a
  // stage's site task calls the matcher's loop — and the nested loops
  // complete however few workers there are.
  constexpr size_t kOuter = 6;
  constexpr size_t kInner = 32;
  for (size_t workers : {0, 1, 2}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> runs(kOuter * kInner);
    ParallelFor(&pool, kOuter, kOuter, [&](size_t outer, size_t) {
      ParallelFor(&pool, kInner, 4, [&](size_t inner, size_t) {
        runs[outer * kInner + inner].fetch_add(1);
      });
    });
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1)
          << "workers=" << workers << " outer=" << i / kInner
          << " inner=" << i % kInner;
    }

    // An exception from one inner index reaches the outer caller.
    EXPECT_THROW(
        ParallelFor(&pool, kOuter, kOuter,
                    [&](size_t outer, size_t) {
                      ParallelFor(&pool, kInner, 4, [&](size_t inner, size_t) {
                        if (outer == 3 && inner == 17) {
                          throw std::runtime_error("inner");
                        }
                      });
                    }),
        std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsSerially) {
  ThreadPool pool(0);
  std::vector<size_t> order;
  pool.ParallelFor(5, 8, [&](size_t i, size_t slot) {
    EXPECT_EQ(slot, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace gstored
