// Fault-injection matrix for the async cluster runtime: under every injected
// fault (site crashes at each stage, message drops, duplication, reordering,
// latency/stragglers — alone and combined) the engine must return either the
// exact oracle result (after retries / straggler hedging) or a correctly
// flagged partial result that is a subset of the oracle — never crash, hang,
// or silently return wrong answers. Also the deterministic-replay smoke:
// the same FaultPlan seed reproduces a byte-identical ledger and outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::testing::RandomAssignment;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;
using ::gstored::testing::kReferenceScenarios;

const EngineMode kAllModes[] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                                EngineMode::kLecPruning, EngineMode::kFull};

// Every stage a site can crash at. A crash at an ordinal below the first
// stage would be the same plan as a crash at the first (FaultPlan::SiteDead
// kills the site from that ordinal on).
const QueryStage kAllStages[] = {QueryStage::kCandidateFilters,
                                 QueryStage::kPartialEval,
                                 QueryStage::kLecFeatures,
                                 QueryStage::kLpmShipment};

std::vector<Binding> Oracle(const Dataset& dataset, const QueryGraph& query) {
  LocalStore store(&dataset.graph());
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  std::vector<Binding> matches = MatchQuery(store, rq);
  DedupBindings(&matches);
  return matches;
}

EngineOptions WithPlan(FaultPlan plan, bool hedge, size_t threads = 1,
                       int max_attempts = 4) {
  EngineOptions options;
  options.num_threads = threads;
  options.fault_plan = std::move(plan);
  options.hedge_local = hedge;
  options.max_attempts = max_attempts;
  return options;
}

/// One query's outcome plus the ledger breakdown of the session it ran
/// over.
struct SessionRun {
  QueryOutcome outcome;
  std::vector<std::pair<std::string, size_t>> ledger;
};

/// Runs `query` over a fresh QuerySession built from the engine's fault
/// plan, as a context-free Run does, keeping the session's ledger.
SessionRun RunWithSession(const DistributedEngine& engine,
                          const QueryGraph& query, EngineMode mode) {
  QuerySession session(engine.num_sites(), engine.options().fault_plan);
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  SessionRun run;
  run.outcome = engine.Run({query, mode, ctx});
  run.ledger = session.ledger.Breakdown();
  return run;
}

/// The replay contract: two runs under the same FaultPlan — fresh sessions,
/// any thread counts — agree on everything the outcome and ledger record.
void ExpectSameRun(const SessionRun& a, const SessionRun& b,
                   const std::string& context) {
  EXPECT_EQ(b.outcome.matches, a.outcome.matches) << context;
  EXPECT_EQ(b.outcome.exact, a.outcome.exact) << context;
  EXPECT_EQ(b.ledger, a.ledger) << context;
  const QueryStats& sa = a.outcome.stats;
  const QueryStats& sb = b.outcome.stats;
  EXPECT_EQ(sb.transport_retries, sa.transport_retries) << context;
  EXPECT_EQ(sb.hedged_sites, sa.hedged_sites) << context;
  EXPECT_EQ(sb.num_lpms_shipped, sa.num_lpms_shipped) << context;
  EXPECT_EQ(sb.exchange_degraded, sa.exchange_degraded) << context;
  EXPECT_EQ(sb.pruning_degraded, sa.pruning_degraded) << context;
  ASSERT_EQ(b.outcome.sites.size(), a.outcome.sites.size()) << context;
  for (size_t s = 0; s < a.outcome.sites.size(); ++s) {
    const SiteReport& ra = a.outcome.sites[s];
    const SiteReport& rb = b.outcome.sites[s];
    EXPECT_EQ(rb.partial_eval_complete, ra.partial_eval_complete)
        << context << " site=" << s;
    EXPECT_EQ(rb.lpms_complete, ra.lpms_complete) << context << " site=" << s;
    EXPECT_EQ(rb.crashed, ra.crashed) << context << " site=" << s;
    EXPECT_EQ(rb.hedged, ra.hedged) << context << " site=" << s;
    EXPECT_EQ(rb.max_attempts, ra.max_attempts) << context << " site=" << s;
  }
}

/// The core safety contract: an exact outcome equals the oracle; a partial
/// outcome is flagged (some site incomplete) and is a subset of the oracle.
/// `expected` must be sorted+deduplicated (Oracle output is).
void ExpectExactOrFlaggedSubset(const QueryOutcome& outcome,
                                const std::vector<Binding>& expected,
                                const std::string& context) {
  if (outcome.exact) {
    EXPECT_EQ(outcome.matches, expected) << context;
    for (const SiteReport& r : outcome.sites) {
      EXPECT_TRUE(r.complete()) << context;
    }
    return;
  }
  bool any_incomplete = false;
  for (const SiteReport& r : outcome.sites) {
    any_incomplete = any_incomplete || !r.complete();
  }
  EXPECT_TRUE(any_incomplete)
      << context << ": partial outcome must name a lossy site";
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                            outcome.matches.begin(), outcome.matches.end()))
      << context << ": partial matches must be a subset of the oracle";
}

TEST(FaultInjectionTest, CrashAtEveryStageHedgingRecoversExactly) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  for (QueryStage crash_stage : kAllStages) {
    const uint32_t stage = StageOrdinal(crash_stage);
    for (int victim = 0; victim < 3; ++victim) {
      FaultPlan plan;
      plan.seed = 100 + stage;
      plan.site_overrides[victim].crash_at_stage = static_cast<int>(stage);
      DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/true));
      for (EngineMode mode : kAllModes) {
        QueryOutcome outcome = engine.Run({query, mode});
        EXPECT_TRUE(outcome.exact)
            << "stage=" << stage << " victim=" << victim;
        EXPECT_EQ(outcome.matches, expected)
            << "stage=" << stage << " victim=" << victim << " mode="
            << EngineModeName(mode);
        EXPECT_TRUE(outcome.sites[victim].crashed);
      }
    }
  }
}

TEST(FaultInjectionTest, CrashWithoutHedgingIsFlaggedPartialSubset) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  for (QueryStage crash_stage : kAllStages) {
    const uint32_t stage = StageOrdinal(crash_stage);
    for (int victim = 0; victim < 3; ++victim) {
      FaultPlan plan;
      plan.seed = 200 + stage;
      plan.site_overrides[victim].crash_at_stage = static_cast<int>(stage);
      DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false));
      for (EngineMode mode : kAllModes) {
        QueryOutcome outcome = engine.Run({query, mode});
        std::string context = "stage=" + std::to_string(stage) + " victim=" +
                              std::to_string(victim) + " mode=" +
                              EngineModeName(mode);
        // A crash before/at partial evaluation or LPM shipment loses the
        // victim's data: the outcome must be flagged partial, never
        // silently wrong. (Exchange-stage crashes only degrade the Alg. 4
        // filters; the later stages still fail for the dead site.)
        EXPECT_FALSE(outcome.exact) << context;
        EXPECT_TRUE(outcome.sites[victim].crashed) << context;
        EXPECT_FALSE(outcome.sites[victim].complete()) << context;
        ExpectExactOrFlaggedSubset(outcome, expected, context);
      }
    }
  }
}

TEST(FaultInjectionTest, DroppedMessagesRecoverViaRetry) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  size_t total_retries = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.default_fault.drop_prob = 0.3;
    // No hedging: recovery must come from retransmission alone. Each
    // attempt redraws the drop decisions, so enough attempts make loss
    // astronomically unlikely — but the safety contract is checked either
    // way.
    DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false, 1,
                                          /*max_attempts=*/8));
    for (EngineMode mode : kAllModes) {
      QueryOutcome outcome = engine.Run({query, mode});
      ExpectExactOrFlaggedSubset(outcome, expected,
                                 "seed=" + std::to_string(seed));
      total_retries += outcome.stats.transport_retries;
    }
  }
  // 30% drop over 8 seeds x 4 modes cannot leave the retry path untouched.
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultInjectionTest, LostFilterExchangeFallsBackToUnfiltered) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  // Kill the candidate-filter exchange outright (every attempt, site 1).
  // The engine must skip ALL filters — a partial union would break the
  // one-sided error guarantee — and still answer exactly.
  FaultPlan plan;
  plan.seed = 7;
  plan.site_overrides[1].drop_message_stages = {
      StageOrdinal(QueryStage::kCandidateFilters)};
  DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false));
  QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
  EXPECT_TRUE(outcome.stats.exchange_degraded);
  EXPECT_TRUE(outcome.exact);
  EXPECT_EQ(outcome.matches, expected);
}

TEST(FaultInjectionTest, LostFeatureBatchSkipsPruningButStaysExact) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  FaultPlan plan;
  plan.seed = 11;
  plan.site_overrides[2].drop_message_stages = {
      StageOrdinal(QueryStage::kLecFeatures)};
  DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false));
  QueryOutcome outcome = engine.Run({query, EngineMode::kLecPruning});
  EXPECT_TRUE(outcome.stats.pruning_degraded);
  EXPECT_TRUE(outcome.exact);
  EXPECT_EQ(outcome.matches, expected);
  // Pruning skipped => everything ships, like basic mode.
  EXPECT_EQ(outcome.stats.num_lpms_shipped, outcome.stats.num_lpms);
}

TEST(FaultInjectionTest, DuplicationReorderAndLatencyAreInvisible) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  FaultPlan plan;
  plan.seed = 42;
  plan.reorder = true;
  plan.default_fault.duplicate_prob = 0.5;
  plan.default_fault.latency_mean_ms = 3.0;
  plan.default_fault.latency_jitter_ms = 2.0;
  DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false));
  for (EngineMode mode : kAllModes) {
    QueryOutcome outcome = engine.Run({query, mode});
    EXPECT_TRUE(outcome.exact) << EngineModeName(mode);
    EXPECT_EQ(outcome.matches, expected) << EngineModeName(mode);
    EXPECT_EQ(outcome.stats.transport_retries, 0u) << EngineModeName(mode);
  }
}

TEST(FaultInjectionTest, StragglerIsRecoveredByHedging) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  FaultPlan plan;
  plan.seed = 5;
  plan.site_overrides[0].straggler = true;
  {
    DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/true, 1,
                                          /*max_attempts=*/2));
    QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
    EXPECT_TRUE(outcome.exact);
    EXPECT_EQ(outcome.matches, expected);
    EXPECT_TRUE(outcome.sites[0].hedged);
    EXPECT_GT(outcome.stats.hedged_sites, 0u);
    EXPECT_GT(outcome.stats.transport_retries, 0u);
  }
  {
    // Without hedging the straggler's data never arrives: flagged partial.
    DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false, 1,
                                          /*max_attempts=*/2));
    QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
    EXPECT_FALSE(outcome.exact);
    EXPECT_FALSE(outcome.sites[0].complete());
    ExpectExactOrFlaggedSubset(outcome, expected, "straggler-no-hedge");
  }
}

TEST(FaultInjectionTest, FaultReplayDeterminism) {
  // The deterministic-fault-replay smoke: the same FaultPlan seed must
  // reproduce a byte-identical ledger breakdown and an identical outcome —
  // across fresh engines and across intra-site thread counts.
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();

  FaultPlan plan;
  plan.seed = 31337;
  plan.reorder = true;
  plan.default_fault.drop_prob = 0.2;
  plan.default_fault.duplicate_prob = 0.2;
  plan.default_fault.latency_mean_ms = 1.0;
  plan.site_overrides[1].crash_at_stage =
      static_cast<int>(StageOrdinal(QueryStage::kLecFeatures));

  for (bool hedge : {true, false}) {
    SessionRun first;
    for (int run = 0; run < 3; ++run) {
      size_t threads = run == 2 ? 8 : 1;  // replay must survive parallelism
      DistributedEngine engine(&p, WithPlan(plan, hedge, threads));
      SessionRun current = RunWithSession(engine, query, EngineMode::kFull);
      if (run == 0) {
        first = std::move(current);
        continue;
      }
      ExpectSameRun(first, current,
                    "hedge=" + std::to_string(hedge) +
                        " run=" + std::to_string(run));
    }
  }
}

TEST(FaultInjectionTest, ReferenceScenariosUnderMixedFaults) {
  // The randomized oracle sweep under a mixed fault plan (drops +
  // duplication + reordering + latency, one crashing site): hedging on =>
  // exact everywhere; hedging off => exact-or-flagged-subset everywhere.
  for (const auto& s : kReferenceScenarios) {
    Rng rng(s.seed);
    auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
    QueryGraph query =
        RandomConnectedQuery(rng, *dataset, s.query_vertices, s.query_edges);
    std::vector<Binding> expected = Oracle(*dataset, query);
    Partitioning partitioning = BuildPartitioning(
        *dataset, RandomAssignment(rng, *dataset, 3), 3, "random");

    FaultPlan plan;
    plan.seed = s.seed * 977;
    plan.reorder = true;
    plan.default_fault.drop_prob = 0.25;
    plan.default_fault.duplicate_prob = 0.25;
    plan.default_fault.latency_mean_ms = 2.0;
    plan.site_overrides[1].crash_at_stage =
        static_cast<int>(s.seed % 5);  // sweep the crash stage

    for (bool hedge : {true, false}) {
      DistributedEngine engine(&partitioning,
                               WithPlan(plan, hedge, 1, /*max_attempts=*/8));
      for (EngineMode mode : {EngineMode::kBasic, EngineMode::kFull}) {
        QueryOutcome outcome = engine.Run({query, mode});
        std::string context = "seed=" + std::to_string(s.seed) + " hedge=" +
                              std::to_string(hedge) + " mode=" +
                              EngineModeName(mode);
        if (hedge) {
          EXPECT_TRUE(outcome.exact) << context;
          EXPECT_EQ(outcome.matches, expected) << context;
        } else {
          ExpectExactOrFlaggedSubset(outcome, expected, context);
        }
      }
    }
  }
}

/// Runs one request at 1 and at 8 threads, each over a fresh session, and
/// checks both halves of the fault contract: the two runs replay each other
/// exactly, and the answer is the oracle's (hedging on) or a flagged subset
/// of it (hedging off).
void ExpectReplayAndOracle(const Partitioning& p, const FaultPlan& plan,
                           bool hedge, int max_attempts,
                           const QueryGraph& query, EngineMode mode,
                           const std::vector<Binding>& expected,
                           const std::string& context) {
  DistributedEngine serial(&p, WithPlan(plan, hedge, 1, max_attempts));
  DistributedEngine parallel(&p, WithPlan(plan, hedge, 8, max_attempts));
  SessionRun one = RunWithSession(serial, query, mode);
  SessionRun eight = RunWithSession(parallel, query, mode);
  ExpectSameRun(one, eight, context);
  if (hedge) {
    EXPECT_TRUE(one.outcome.exact) << context;
    EXPECT_EQ(one.outcome.matches, expected) << context;
  } else {
    ExpectExactOrFlaggedSubset(one.outcome, expected, context);
  }
}

TEST(FaultInjectionTest, FaultMatrixReplaysAndMatchesOracle) {
  // Across a crash plan, a drop plan, a reorder+duplication plan and a
  // latency/straggler plan, each under several seeds, with and without
  // hedging: 1- and 8-thread runs replay each other's fault draws, retries,
  // hedges and wire bytes exactly, and the answer meets the oracle.
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  std::vector<Binding> expected = Oracle(*dataset, query);

  struct NamedPlan {
    const char* name;
    FaultPlan plan;
  };
  std::vector<NamedPlan> plans;
  {
    FaultPlan crash;
    crash.site_overrides[1].crash_at_stage =
        static_cast<int>(StageOrdinal(QueryStage::kPartialEval));
    plans.push_back({"crash", crash});
    FaultPlan drop;
    drop.default_fault.drop_prob = 0.3;
    plans.push_back({"drop", drop});
    FaultPlan reorder;
    reorder.reorder = true;
    reorder.default_fault.duplicate_prob = 0.4;
    plans.push_back({"reorder+dup", reorder});
    FaultPlan latency;
    latency.default_fault.latency_mean_ms = 2.0;
    latency.default_fault.latency_jitter_ms = 1.5;
    latency.site_overrides[0].straggler = true;
    plans.push_back({"latency+straggler", latency});
  }

  for (const NamedPlan& np : plans) {
    for (uint64_t seed : {uint64_t{3}, uint64_t{17}, uint64_t{8191}}) {
      FaultPlan plan = np.plan;
      plan.seed = seed;
      for (bool hedge : {true, false}) {
        for (EngineMode mode : {EngineMode::kBasic, EngineMode::kFull}) {
          ExpectReplayAndOracle(
              p, plan, hedge, /*max_attempts=*/4, query, mode, expected,
              std::string(np.name) + " seed=" + std::to_string(seed) +
                  " hedge=" + std::to_string(hedge) + " mode=" +
                  EngineModeName(mode));
        }
      }
    }
  }
}

TEST(FaultInjectionTest, LubmMixedFaultsReplayAndMatchOracle) {
  // Same contract on a real workload: every LUBM-3 query, mixed fault plan,
  // three seeds, both thread counts.
  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  std::vector<std::vector<Binding>> expected;
  for (const BenchmarkQuery& bq : w.queries) {
    expected.push_back(Oracle(*w.dataset, bq.query));
  }

  for (uint64_t seed : {uint64_t{101}, uint64_t{202}, uint64_t{303}}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.reorder = true;
    plan.default_fault.drop_prob = 0.2;
    plan.default_fault.duplicate_prob = 0.1;
    plan.default_fault.latency_mean_ms = 1.5;
    plan.site_overrides[2].straggler = true;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      ExpectReplayAndOracle(
          p, plan, /*hedge=*/true, /*max_attempts=*/6, w.queries[q].query,
          EngineMode::kFull, expected[q],
          w.queries[q].name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(FaultInjectionTest, LubmUnderFaultsAtBothThreadCounts) {
  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);

  FaultPlan plan;
  plan.seed = 90210;
  plan.reorder = true;
  plan.default_fault.drop_prob = 0.2;
  plan.default_fault.duplicate_prob = 0.1;
  plan.default_fault.latency_mean_ms = 1.5;
  plan.site_overrides[2].crash_at_stage =
      static_cast<int>(StageOrdinal(QueryStage::kPartialEval));

  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<Binding> expected = Oracle(*w.dataset, bq.query);
    std::vector<Binding> hedged_1thread;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      {
        DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/true, threads,
                                              /*max_attempts=*/8));
        QueryOutcome outcome = engine.Run({bq.query, EngineMode::kFull});
        EXPECT_TRUE(outcome.exact) << bq.name << " threads=" << threads;
        EXPECT_EQ(outcome.matches, expected)
            << bq.name << " threads=" << threads;
        if (threads == 1) {
          hedged_1thread = outcome.matches;
        } else {
          EXPECT_EQ(outcome.matches, hedged_1thread)
              << bq.name << ": thread count changed the result";
        }
      }
      {
        DistributedEngine engine(&p, WithPlan(plan, /*hedge=*/false, threads,
                                              /*max_attempts=*/8));
        QueryOutcome outcome = engine.Run({bq.query, EngineMode::kFull});
        ExpectExactOrFlaggedSubset(
            outcome, expected,
            bq.name + " threads=" + std::to_string(threads));
        // Site 2 is dead from partial evaluation on: every non-star query
        // must be flagged partial (star queries lose local matches too).
        EXPECT_FALSE(outcome.exact) << bq.name;
        EXPECT_FALSE(outcome.sites[2].complete()) << bq.name;
      }
    }
  }
}

}  // namespace
}  // namespace gstored
