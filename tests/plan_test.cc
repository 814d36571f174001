// Property suite for the src/plan/ DP enumerator against the cost greedy
// orders: never more search-tree nodes on the shared reference scenarios or
// any LUBM-3 query x store combo (with pinned strict wins), a LUBM-16 win
// that the greedy order's lower estimate does not foresee, valid unit
// orders, byte-identical match sets for either enumerator through the
// engine at 1 and 8 threads in every mode, and exact greedy-fallback
// identity for the kGreedy setting, oversized queries and statistics off.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/local_partial_match.h"
#include "partition/partitioners.h"
#include "plan/planner.h"
#include "store/local_store.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;
using ::gstored::testing::ReferenceScenario;

std::vector<Binding> Sorted(std::vector<Binding> m) {
  std::sort(m.begin(), m.end());
  return m;
}

// ---------------------------------------------------------------------------
// Reference scenarios: DP never enumerates a larger tree than greedy, the
// returned cost is an honest replay, and both orders yield one match set.
// ---------------------------------------------------------------------------

class PlanQuality : public ::testing::TestWithParam<ReferenceScenario> {};

TEST_P(PlanQuality, DpNeverWorseThanGreedyAndAnswersUnchanged) {
  const ReferenceScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  LocalStore store(&dataset->graph());
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());

  SitePlan dp = PlanSiteMatchOrder(store, rq, /*use_statistics=*/true);
  std::vector<QVertexId> greedy = MatchingOrder(store, rq);

  // The plan's cost is exactly the linear metric's replay of its order —
  // the estimate perfbench's q-error row compares with actual nodes.
  EXPECT_DOUBLE_EQ(dp.cost, EstimateOrderCost(store, rq, dp.match_order));

  size_t dp_nodes = CountIntermediateResults(store, rq, dp.match_order);
  size_t greedy_nodes = CountIntermediateResults(store, rq, greedy);
  EXPECT_LE(dp_nodes, greedy_nodes) << "query: " << query.ToString();

  MatchOptions dp_match, greedy_match;
  dp_match.precomputed_order = &dp.match_order;
  greedy_match.precomputed_order = &greedy;
  EXPECT_EQ(Sorted(MatchQuery(store, rq, dp_match)),
            Sorted(MatchQuery(store, rq, greedy_match)))
      << "query: " << query.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanQuality,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

// ---------------------------------------------------------------------------
// Greedy-fallback identity: kGreedy and oversized queries must reproduce the
// cost greedy orders verbatim, statistics off the pre-statistics ones.
// ---------------------------------------------------------------------------

TEST(PlanFallbackTest, KGreedyReturnsPr3OrdersVerbatim) {
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  LocalStore store(&w.dataset->graph());
  PlanOptions greedy_options;
  greedy_options.enumerator = PlanEnumerator::kGreedy;
  for (const BenchmarkQuery& bq : w.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, w.dataset->dict());
    SitePlan plan =
        PlanSiteMatchOrder(store, rq, /*use_statistics=*/true, greedy_options);
    EXPECT_EQ(plan.match_order, MatchingOrder(store, rq)) << bq.name;
    EXPECT_DOUBLE_EQ(plan.cost, EstimateOrderCost(store, rq, plan.match_order))
        << bq.name;
    for (const IslandTask& task : EnumerateIslandTasks(*rq.query)) {
      EXPECT_EQ(
          PlanIslandUnitOrder(store, rq, task, /*use_statistics=*/true,
                              greedy_options),
          BuildIslandUnitOrder(store, rq, task, /*use_statistics=*/true))
          << bq.name;
    }
  }
}

TEST(PlanFallbackTest, SizeGateAndNoStatisticsKeepGreedy) {
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  LocalStore store(&w.dataset->graph());

  // One vertex above the DP's 10-vertex gate: the cost greedy order comes
  // back verbatim.
  Rng rng(1);
  QueryGraph big = RandomConnectedQuery(rng, *w.dataset, 11, 14,
                                        /*constant_prob=*/0.0);
  ASSERT_EQ(big.num_vertices(), 11u);
  ResolvedQuery big_rq = ResolveQuery(big, w.dataset->dict());
  EXPECT_EQ(PlanSiteMatchOrder(store, big_rq, /*use_statistics=*/true)
                .match_order,
            MatchingOrder(store, big_rq));

  for (const BenchmarkQuery& bq : w.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, w.dataset->dict());
    // Without statistics there is nothing to cost: the pre-statistics
    // greedy order comes back untouched for any enumerator.
    EXPECT_EQ(PlanSiteMatchOrder(store, rq, false).match_order,
              MatchingOrderGreedy(store, rq))
        << bq.name;
  }
}

// ---------------------------------------------------------------------------
// LUBM-16 over 4 hash sites: the planner keeps the DP's order even where its
// estimate is above the greedy order's, and every unit order it returns is
// well formed.
// ---------------------------------------------------------------------------

/// LUBM-16 hash-partitioned over 4 sites, built once for the tests below.
struct Lubm16Sites {
  Lubm16Sites()
      : workload(MakeLubmWorkload(LubmConfig{.universities = 16})),
        partitioning(HashPartitioner().Partition(*workload.dataset, 4)) {
    for (const Fragment& f : partitioning.fragments()) {
      stores.push_back(std::make_unique<LocalStore>(&f.graph()));
    }
  }

  Workload workload;
  Partitioning partitioning;
  std::vector<std::unique_ptr<LocalStore>> stores;
};

const Lubm16Sites& Lubm16() {
  static const Lubm16Sites sites;
  return sites;
}

TEST(PlanLubm16Test, DpOrderBeatsGreedyWhoseEstimateIsLower) {
  const Lubm16Sites& lubm = Lubm16();
  const BenchmarkQuery& lq2 = lubm.workload.queries[1];
  ASSERT_EQ(lq2.name, "LQ2");
  const LocalStore& store = *lubm.stores[0];
  ResolvedQuery rq = ResolveQuery(lq2.query, lubm.workload.dataset->dict());

  SitePlan plan = PlanSiteMatchOrder(store, rq, /*use_statistics=*/true);
  std::vector<QVertexId> greedy = MatchingOrder(store, rq);
  // The greedy order is estimated cheaper, yet explores more nodes: an
  // estimate margin in greedy's favour would have kept the worse order.
  EXPECT_LT(EstimateOrderCost(store, rq, greedy), plan.cost);
  EXPECT_LT(CountIntermediateResults(store, rq, plan.match_order),
            CountIntermediateResults(store, rq, greedy));
}

TEST(PlanLubm16Test, UnitOrdersAreValid) {
  const Lubm16Sites& lubm = Lubm16();
  for (const BenchmarkQuery& bq : lubm.workload.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, lubm.workload.dataset->dict());
    const QueryGraph& q = *rq.query;
    for (const auto& store : lubm.stores) {
      for (const IslandTask& task : EnumerateIslandTasks(q)) {
        const std::vector<QVertexId> order =
            PlanIslandUnitOrder(*store, rq, task, /*use_statistics=*/true);
        const size_t island_size =
            static_cast<size_t>(std::popcount(task.island));
        ASSERT_EQ(order.size(),
                  island_size +
                      static_cast<size_t>(std::popcount(task.boundary)))
            << bq.name;
        uint32_t placed = 0;
        for (size_t i = 0; i < order.size(); ++i) {
          const uint32_t bit = uint32_t{1} << order[i];
          // Island vertices first, then exactly the boundary, no repeats.
          EXPECT_NE(i < island_size ? task.island & bit : task.boundary & bit,
                    0u)
              << bq.name << " position " << i;
          EXPECT_EQ(placed & bit, 0u) << bq.name << " position " << i;
          // Each island vertex after the first touches an earlier one.
          if (i > 0 && i < island_size) {
            const auto nbs = q.Neighbors(order[i]);
            EXPECT_TRUE(std::any_of(nbs.begin(), nbs.end(), [&](QVertexId nb) {
              return (placed & (uint32_t{1} << nb)) != 0;
            })) << bq.name << " position " << i;
          }
          placed |= bit;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// LUBM-3 combos: the bench_ablation_ordering bars as a test — DP strictly
// cheaper on more combos than PR-3's own win count, never worse, with the
// two pinned headline wins (the LQ1 and LQ7 triangle closures on the
// centralized store) asserted individually.
// ---------------------------------------------------------------------------

TEST(PlanLubmTest, DpStrictlyImprovesCombosAndRegressesNone) {
  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  LocalStore oracle(&w.dataset->graph());
  std::vector<std::unique_ptr<LocalStore>> stores;
  for (const Fragment& f : p.fragments()) {
    stores.push_back(std::make_unique<LocalStore>(&f.graph()));
  }

  size_t wins = 0;
  size_t pinned_wins = 0;
  for (const BenchmarkQuery& bq : w.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, w.dataset->dict());
    auto check = [&](const LocalStore& store, const char* store_name) {
      SitePlan dp = PlanSiteMatchOrder(store, rq, /*use_statistics=*/true);
      std::vector<QVertexId> greedy = MatchingOrder(store, rq);
      size_t dp_nodes = CountIntermediateResults(store, rq, dp.match_order);
      size_t greedy_nodes = CountIntermediateResults(store, rq, greedy);
      ASSERT_LE(dp_nodes, greedy_nodes) << bq.name << " " << store_name;
      if (dp_nodes < greedy_nodes) {
        ++wins;
        if ((bq.name == "LQ1" || bq.name == "LQ7") &&
            std::string(store_name) == "centralized") {
          ++pinned_wins;
        }
      }
    };
    check(oracle, "centralized");
    for (size_t s = 0; s < stores.size(); ++s) check(*stores[s], "site");
  }
  // The same bars bench_ablation_ordering enforces by exit code: strictly
  // cheaper on more combos than PR-3's greedy managed over its own baseline
  // (7 of 35), and the two headline triangle-closure wins present.
  EXPECT_GT(wins, 7u);
  EXPECT_EQ(pinned_wins, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the enumerator choice changes orders only, so the
// engine must return byte-identical outcomes for kDp and kGreedy across
// thread counts and modes.
// ---------------------------------------------------------------------------

TEST(PlanEngineTest, ByteIdenticalOutcomesAcrossEnumeratorsThreadsAndModes) {
  LubmConfig config;
  config.universities = 2;
  config.undergrad_students_per_dept = 12;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);

  const EngineMode kAllModes[] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                                  EngineMode::kLecPruning, EngineMode::kFull};
  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<std::vector<Binding>> per_mode_reference;
    for (PlanEnumerator enumerator :
         {PlanEnumerator::kDp, PlanEnumerator::kGreedy}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        EngineOptions options;
        options.plan.enumerator = enumerator;
        options.num_threads = threads;
        DistributedEngine engine(&p, options);
        for (size_t m = 0; m < std::size(kAllModes); ++m) {
          QueryOutcome outcome = engine.Run({bq.query, kAllModes[m]});
          if (per_mode_reference.size() <= m) {
            per_mode_reference.push_back(outcome.matches);
          } else {
            EXPECT_EQ(outcome.matches, per_mode_reference[m])
                << bq.name << " mode " << m << " threads " << threads
                << " enumerator " << (enumerator == PlanEnumerator::kDp);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gstored
