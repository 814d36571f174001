// Integration tests of the DistributedEngine across modules: workload
// queries vs the centralized oracle in every mode, statistics consistency
// invariants, star fast-path behaviour, shipment accounting, concurrent
// context-free runs, impossible queries, and robustness to degenerate
// partitionings (1 fragment, many fragments).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "workload/btc.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace gstored {
namespace {

std::vector<Binding> Oracle(const Dataset& dataset, const QueryGraph& query) {
  LocalStore store(&dataset.graph());
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  std::vector<Binding> matches = MatchQuery(store, rq);
  DedupBindings(&matches);
  return matches;
}

const EngineMode kAllModes[] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                                EngineMode::kLecPruning, EngineMode::kFull};

TEST(EngineIntegrationTest, LubmAllQueriesAllModes) {
  LubmConfig config;
  config.universities = 2;
  config.undergrad_students_per_dept = 12;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<Binding> expected = Oracle(*w.dataset, bq.query);
    for (EngineMode mode : kAllModes) {
      QueryOutcome outcome = engine.Run({bq.query, mode});
      EXPECT_EQ(outcome.matches, expected)
          << bq.name << " " << EngineModeName(mode);
      EXPECT_EQ(outcome.stats.num_matches, expected.size());
    }
  }
}

TEST(EngineIntegrationTest, YagoAndBtcFullMode) {
  {
    YagoConfig config;
    config.persons = 250;
    Workload w = MakeYagoWorkload(config);
    Partitioning p = SemanticHashPartitioner().Partition(*w.dataset, 3);
    DistributedEngine engine(&p);
    for (const BenchmarkQuery& bq : w.queries) {
      EXPECT_EQ(engine.Run({bq.query, EngineMode::kFull}).matches,
                Oracle(*w.dataset, bq.query))
          << bq.name;
    }
  }
  {
    BtcConfig config;
    config.entities_per_domain = 150;
    Workload w = MakeBtcWorkload(config);
    Partitioning p = HashPartitioner().Partition(*w.dataset, 5);
    DistributedEngine engine(&p);
    for (const BenchmarkQuery& bq : w.queries) {
      EXPECT_EQ(engine.Run({bq.query, EngineMode::kFull}).matches,
                Oracle(*w.dataset, bq.query))
          << bq.name;
    }
  }
}

TEST(EngineIntegrationTest, StatsInvariants) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();

  QuerySession session(engine.num_sites());
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  const QueryStats stats = engine.Run({query, EngineMode::kFull, ctx}).stats;
  EXPECT_FALSE(stats.star_shortcut);
  EXPECT_TRUE(stats.selective);
  EXPECT_GE(stats.num_lpms, stats.num_lpms_shipped);
  EXPECT_GE(stats.num_features, stats.num_surviving_features);
  EXPECT_GE(stats.num_matches, stats.num_local_matches);
  EXPECT_GT(stats.candidate_shipment_bytes, 0u);
  EXPECT_GT(stats.lec_shipment_bytes, 0u);
  EXPECT_GT(stats.lpm_shipment_bytes, 0u);
  EXPECT_GE(stats.total_time_ms, 0.0);
  // The ledger agrees with the per-stage stats.
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            stats.candidate_shipment_bytes);
  EXPECT_EQ(session.ledger.StageBytes(kLecFeatureStage),
            stats.lec_shipment_bytes);
  EXPECT_EQ(session.ledger.StageBytes(kLpmShipmentStage),
            stats.lpm_shipment_bytes);
}

TEST(EngineIntegrationTest, ByteColumnsArePerQueryOnAReusedContext) {
  // A context's ledger keeps counting across the queries it runs, but each
  // query's three byte columns are its own: LUBM-3 LQ7 run twice over one
  // context reads, both times, what a run on a fresh session reads.
  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  const QueryGraph& lq7 = w.queries[6].query;
  const QueryStats fresh = engine.Run({lq7, EngineMode::kFull}).stats;
  ASSERT_GT(fresh.candidate_shipment_bytes, 0u);
  ASSERT_GT(fresh.lec_shipment_bytes, 0u);
  ASSERT_GT(fresh.lpm_shipment_bytes, 0u);

  QuerySession session(engine.num_sites());
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  const QueryStats first = engine.Run({lq7, EngineMode::kFull, ctx}).stats;
  const QueryStats second = engine.Run({lq7, EngineMode::kFull, ctx}).stats;
  for (const QueryStats* run : {&first, &second}) {
    EXPECT_EQ(run->candidate_shipment_bytes, fresh.candidate_shipment_bytes);
    EXPECT_EQ(run->lec_shipment_bytes, fresh.lec_shipment_bytes);
    EXPECT_EQ(run->lpm_shipment_bytes, fresh.lpm_shipment_bytes);
  }
  // The session ledger holds both queries' bytes.
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            first.candidate_shipment_bytes + second.candidate_shipment_bytes);
  EXPECT_EQ(session.ledger.StageBytes(kLecFeatureStage),
            first.lec_shipment_bytes + second.lec_shipment_bytes);
  EXPECT_EQ(session.ledger.StageBytes(kLpmShipmentStage),
            first.lpm_shipment_bytes + second.lpm_shipment_bytes);
}

TEST(EngineIntegrationTest, BasicAndLaShipEverything) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();

  const QueryStats basic = engine.Run({query, EngineMode::kBasic}).stats;
  EXPECT_EQ(basic.num_lpms_shipped, basic.num_lpms);
  EXPECT_EQ(basic.num_features, 0u);            // no Alg. 1/2 in basic mode
  EXPECT_EQ(basic.lec_shipment_bytes, 0u);
  EXPECT_EQ(basic.candidate_shipment_bytes, 0u);

  const QueryStats lo = engine.Run({query, EngineMode::kLecPruning}).stats;
  EXPECT_LT(lo.num_lpms_shipped, lo.num_lpms);  // PM23 pruned
  EXPECT_LT(lo.lpm_shipment_bytes, basic.lpm_shipment_bytes);
}

TEST(EngineIntegrationTest, StarShortcutSkipsAllShipment) {
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (!bq.query.IsStar()) continue;
    QuerySession session(engine.num_sites());
    QueryContext ctx;
    ctx.ledger = &session.ledger;
    ctx.transport = &session.transport;
    QueryOutcome outcome = engine.Run({bq.query, EngineMode::kFull, ctx});
    EXPECT_TRUE(outcome.stats.star_shortcut) << bq.name;
    EXPECT_EQ(outcome.stats.num_lpms, 0u);
    EXPECT_EQ(session.ledger.TotalBytes(), 0u);
    EXPECT_EQ(outcome.matches, Oracle(*w.dataset, bq.query)) << bq.name;
  }
}

TEST(EngineIntegrationTest, ImpossibleQueryReturnsEmpty) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?x", "<http://nowhere/p>", "?y");
  q.AddEdge("?z", "<http://nowhere/q>", "?y");
  for (EngineMode mode : kAllModes) {
    QueryOutcome outcome = engine.Run({q, mode});
    EXPECT_TRUE(outcome.matches.empty());
    EXPECT_EQ(outcome.stats.num_matches, 0u);
  }
}

TEST(EngineIntegrationTest, SingleFragmentDegeneratesToLocal) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = HashPartitioner().Partition(*dataset, 1);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
  EXPECT_EQ(outcome.matches, Oracle(*dataset, query));
  EXPECT_EQ(outcome.stats.num_lpms, 0u);  // no crossing edges => no LPMs
  EXPECT_EQ(outcome.stats.num_local_matches, outcome.matches.size());
}

TEST(EngineIntegrationTest, ManyTinyFragments) {
  // More fragments than natural clusters: every vertex nearly isolated.
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = HashPartitioner().Partition(*dataset, 10);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  EXPECT_EQ(engine.Run({query, EngineMode::kFull}).matches,
            Oracle(*dataset, query));
}

TEST(EngineIntegrationTest, RepeatedExecutionIsDeterministic) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  auto first = engine.Run({query, EngineMode::kFull}).matches;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.Run({query, EngineMode::kFull}).matches, first);
  }
}

TEST(EngineIntegrationTest, ConcurrentContextFreeRunsMatchSerial) {
  // A context-free Run builds its own session, so overlapping calls on one
  // engine neither share a ledger nor mix their traffic: every concurrent
  // outcome equals the serial one, shipment bytes included.
  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);

  struct Observed {
    std::vector<Binding> matches;
    size_t candidate_bytes = 0;
    size_t lec_bytes = 0;
    size_t lpm_bytes = 0;
  };
  auto observe = [&](const QueryGraph& query) {
    QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
    return Observed{std::move(outcome.matches),
                    outcome.stats.candidate_shipment_bytes,
                    outcome.stats.lec_shipment_bytes,
                    outcome.stats.lpm_shipment_bytes};
  };
  std::vector<Observed> serial;
  for (const BenchmarkQuery& bq : w.queries) {
    serial.push_back(observe(bq.query));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 2;
  // Each thread starts at a different query so different queries overlap.
  std::vector<std::vector<Observed>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds * w.queries.size(); ++i) {
        seen[t].push_back(observe(w.queries[(t + i) % w.queries.size()].query));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), kRounds * w.queries.size());
    for (size_t i = 0; i < seen[t].size(); ++i) {
      const size_t q = (t + i) % w.queries.size();
      const std::string context =
          w.queries[q].name + " thread=" + std::to_string(t);
      EXPECT_EQ(seen[t][i].matches, serial[q].matches) << context;
      EXPECT_EQ(seen[t][i].candidate_bytes, serial[q].candidate_bytes)
          << context;
      EXPECT_EQ(seen[t][i].lec_bytes, serial[q].lec_bytes) << context;
      EXPECT_EQ(seen[t][i].lpm_bytes, serial[q].lpm_bytes) << context;
    }
  }
}

TEST(EngineIntegrationTest, AblationJoinSpaceIsMonotone) {
  // The Fig. 9 regression in deterministic form: the assembly join space
  // never grows as optimizations are added — Basic >= LA >= LO(joins after
  // pruning) — and intermediate results shrink alongside.
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.query.IsStar()) continue;
    const QueryStats basic = engine.Run({bq.query, EngineMode::kBasic}).stats;
    const QueryStats la = engine.Run({bq.query, EngineMode::kLecAssembly}).stats;
    const QueryStats lo = engine.Run({bq.query, EngineMode::kLecPruning}).stats;
    EXPECT_GE(basic.assembly.join_attempts, la.assembly.join_attempts)
        << bq.name;
    EXPECT_GE(la.assembly.join_attempts, lo.assembly.join_attempts)
        << bq.name;
    EXPECT_GE(basic.assembly.intermediate_results,
              lo.assembly.intermediate_results)
        << bq.name;
  }
}

TEST(EngineIntegrationTest, SelectiveQueriesShipFewerLpms) {
  // The Alg. 4 filter must reduce (or keep equal) the LPM population
  // compared to LO mode, never increase it.
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.query.IsStar()) continue;
    const QueryStats lo = engine.Run({bq.query, EngineMode::kLecPruning}).stats;
    const QueryStats full = engine.Run({bq.query, EngineMode::kFull}).stats;
    EXPECT_LE(full.num_lpms, lo.num_lpms) << bq.name;
  }
}

}  // namespace
}  // namespace gstored
