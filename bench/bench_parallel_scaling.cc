// Scaling microbenchmarks of the worker-pool execution layer: LPM
// enumeration, centralized matching and the LEC pruning and assembly
// joins at 1/2/4/8 worker slots (same LUBM-3/LQ7 fixture as
// bench_micro_core, plus the join-heavy LQ1 triangle for the join rows),
// and the crossing-index group join graph construction over LPMs, with
// the probe counts surfaced as benchmark counters.
//
// The thread counts request worker *slots*; on a machine with fewer cores
// the pool still runs several slots but cannot show wall-clock scaling
// (results stay byte-identical either way — that is asserted by
// tests/parallel_determinism_test.cc, not here). The assembly and pruning
// rows set min_seeds_per_slot = 1 so several slots run regardless of
// seed-group size; the >1-thread rows therefore measure the
// pool-coordination overhead on small machines, the thing the dynamic
// budget avoids in production.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <vector>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "partition/partitioners.h"
#include "store/matcher.h"
#include "util/thread_pool.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

/// Shared fixture: a LUBM-style dataset, a 4-way hash partitioning and the
/// LQ7 query — identical to bench_micro_core's MicroFixture so the 1-thread
/// numbers line up with BM_EnumerateLpms / BM_CentralizedMatch there.
struct ScalingFixture {
  ScalingFixture()
      : workload(MakeLubmWorkload([] {
          LubmConfig config;
          config.universities = 3;
          return config;
        }())),
        partitioning(HashPartitioner().Partition(*workload.dataset, 4)),
        oracle_store(&workload.dataset->graph()),
        query(workload.queries[6].query),  // LQ7
        rq(ResolveQuery(query, workload.dataset->dict())),
        query_lq1(workload.queries[0].query),  // LQ1: unselective triangle
        rq_lq1(ResolveQuery(query_lq1, workload.dataset->dict())),
        pool(7) {  // 7 workers + the caller = up to 8 slots
    for (const Fragment& f : partitioning.fragments()) {
      stores.push_back(std::make_unique<LocalStore>(&f.graph()));
      auto fragment_lpms = EnumerateLocalPartialMatches(f, *stores.back(), rq);
      lpms.insert(lpms.end(), fragment_lpms.begin(), fragment_lpms.end());
      auto lq1_lpms =
          EnumerateLocalPartialMatches(f, *stores.back(), rq_lq1);
      lpms_lq1.insert(lpms_lq1.end(), lq1_lpms.begin(), lq1_lpms.end());
    }
    groups = GroupBySign(lpms);
    features = ComputeLecFeatures(lpms);
    features_lq1 = ComputeLecFeatures(lpms_lq1);
  }

  Workload workload;
  Partitioning partitioning;
  LocalStore oracle_store;
  QueryGraph query;
  ResolvedQuery rq;
  QueryGraph query_lq1;
  ResolvedQuery rq_lq1;
  ThreadPool pool;
  std::vector<std::unique_ptr<LocalStore>> stores;
  std::vector<LocalPartialMatch> lpms;
  std::vector<LocalPartialMatch> lpms_lq1;
  std::vector<std::vector<uint32_t>> groups;
  LecFeatureSet features;
  LecFeatureSet features_lq1;
};

ScalingFixture& Fixture() {
  static ScalingFixture* fixture = new ScalingFixture();
  return *fixture;
}

void BM_EnumerateLpmsThreads(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  const Fragment& fragment = f.partitioning.fragments()[0];
  EnumerateOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.pool = &f.pool;
  for (auto _ : state) {
    auto lpms = EnumerateLocalPartialMatches(fragment, *f.stores[0], f.rq,
                                             options);
    benchmark::DoNotOptimize(lpms);
  }
}
BENCHMARK(BM_EnumerateLpmsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CentralizedMatchThreads(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  MatchOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.pool = &f.pool;
  for (auto _ : state) {
    auto matches = MatchQuery(f.oracle_store, f.rq, options);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_CentralizedMatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GroupJoinGraphIndexed(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  JoinGraphStats stats;
  for (auto _ : state) {
    stats = JoinGraphStats();
    auto adjacency =
        CrossingIndex<LocalPartialMatch>(f.lpms, f.groups).JoinGraph(&stats);
    benchmark::DoNotOptimize(adjacency);
  }
  state.counters["join_attempts"] =
      static_cast<double>(stats.join_attempts);
  state.counters["edges"] = static_cast<double>(stats.num_edges);
  state.counters["groups"] = static_cast<double>(f.groups.size());
}
BENCHMARK(BM_GroupJoinGraphIndexed);

void BM_LecAssemblyIndexed(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  AssemblyStats stats;
  for (auto _ : state) {
    stats = AssemblyStats();
    auto matches = LecAssembly(f.lpms, f.query.num_vertices(), &stats);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["join_attempts"] =
      static_cast<double>(stats.join_attempts);
}
BENCHMARK(BM_LecAssemblyIndexed);

void RunLecAssemblyThreads(benchmark::State& state,
                           const std::vector<LocalPartialMatch>& lpms,
                           size_t num_query_vertices) {
  ScalingFixture& f = Fixture();
  AssemblyOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.pool = &f.pool;
  options.min_seeds_per_slot = 1;  // force several slots (see file header)
  AssemblyStats stats;
  size_t num_matches = 0;
  for (auto _ : state) {
    stats = AssemblyStats();
    auto matches = LecAssembly(lpms, num_query_vertices, options, &stats);
    num_matches = matches.size();
    benchmark::DoNotOptimize(matches);
  }
  state.counters["lpms"] = static_cast<double>(lpms.size());
  state.counters["groups"] = static_cast<double>(stats.num_groups);
  state.counters["matches"] = static_cast<double>(num_matches);
  state.counters["join_attempts"] = static_cast<double>(stats.join_attempts);
}

void BM_LecAssemblyThreadsLQ7(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  RunLecAssemblyThreads(state, f.lpms, f.query.num_vertices());
}
BENCHMARK(BM_LecAssemblyThreadsLQ7)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LecAssemblyThreadsLQ1(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  RunLecAssemblyThreads(state, f.lpms_lq1, f.query_lq1.num_vertices());
}
BENCHMARK(BM_LecAssemblyThreadsLQ1)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void RunLecPruningThreads(benchmark::State& state,
                          const LecFeatureSet& features,
                          size_t num_query_vertices) {
  ScalingFixture& f = Fixture();
  PruneOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.pool = &f.pool;
  options.min_seeds_per_slot = 1;  // force several slots (see file header)
  PruneResult prune;
  for (auto _ : state) {
    prune = LecFeaturePruning(features.features, num_query_vertices, options);
    benchmark::DoNotOptimize(prune);
  }
  state.counters["features"] = static_cast<double>(features.features.size());
  state.counters["groups"] = static_cast<double>(prune.num_groups);
  state.counters["edges"] = static_cast<double>(prune.num_join_graph_edges);
  state.counters["surviving"] =
      static_cast<double>(prune.surviving_features);
  state.counters["join_attempts"] = static_cast<double>(prune.join_attempts);
}

void BM_LecPruningThreadsLQ7(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  RunLecPruningThreads(state, f.features, f.query.num_vertices());
}
BENCHMARK(BM_LecPruningThreadsLQ7)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LecPruningThreadsLQ1(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  RunLecPruningThreads(state, f.features_lq1, f.query_lq1.num_vertices());
}
BENCHMARK(BM_LecPruningThreadsLQ1)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FullEngineExecuteThreads(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  DistributedEngine engine(&f.partitioning, options);
  for (auto _ : state) {
    auto matches = engine.Run({f.query, EngineMode::kFull}).matches;
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_FullEngineExecuteThreads)->Arg(1)->Arg(4);

/// Async-transport fault/latency row (PR 6). BM_FullEngineExecuteThreads
/// above is the *no-fault* row: it runs the message transport
/// (serialization, done markers, wire-size ledger accounting), so its delta
/// against the same row in BENCH_pr5.json — the old synchronous RunStage
/// barrier — is the pure transport overhead, and it must stay inside the CI
/// regression-gate tolerance. This row additionally injects per-site
/// latency (exponential, mean = Arg ms), 5% drops, 5% duplication and
/// reordering; the counters surface the *virtual* queue-wait percentiles
/// the deadline logic saw (nothing sleeps — real_time measures only the
/// retry/hedging compute overhead, which is the point of the row).
void BM_FullEngineFaultyLatency(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  EngineOptions options;
  options.fault_plan.seed = 20260808;
  options.fault_plan.reorder = true;
  options.fault_plan.default_fault.latency_mean_ms =
      static_cast<double>(state.range(0));
  options.fault_plan.default_fault.latency_jitter_ms =
      static_cast<double>(state.range(0)) / 2.0;
  options.fault_plan.default_fault.drop_prob = 0.05;
  options.fault_plan.default_fault.duplicate_prob = 0.05;
  options.max_attempts = 6;
  DistributedEngine engine(&f.partitioning, options);
  std::vector<double> waits;
  size_t retries = 0;
  size_t hedged = 0;
  bool exact = true;
  for (auto _ : state) {
    auto outcome = engine.Run({f.query, EngineMode::kFull});
    benchmark::DoNotOptimize(outcome);
    retries += outcome.stats.transport_retries;
    hedged += outcome.stats.hedged_sites;
    exact = exact && outcome.exact;
    for (const SiteStageReport& site : outcome.stats.partial_eval_sites) {
      waits.push_back(site.queue_wait_ms);
    }
  }
  std::sort(waits.begin(), waits.end());
  if (!waits.empty()) {
    state.counters["queue_wait_p50_ms"] = waits[waits.size() / 2];
    state.counters["queue_wait_p99_ms"] = waits[(waits.size() * 99) / 100];
  }
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["hedged"] = static_cast<double>(hedged);
  state.counters["exact"] = exact ? 1.0 : 0.0;
}
BENCHMARK(BM_FullEngineFaultyLatency)->Arg(5)->Arg(50);

/// CPU time of the whole process, every thread included, in milliseconds.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// End-to-end pipelined engine rows. The argument is the injected
/// latency_mean_ms: 0 is the no-fault run, whose cpu_time CI gates; 50 adds
/// a straggler site and a stage deadline below the latency mean, so the
/// retry and hedge paths dominate the row. google-benchmark's cpu_time
/// counts the benchmark thread only, which runs one site per stage as the
/// pool's slot 0; the process_cpu_ms counter adds the pool workers that run
/// the other sites and the kernels' extra slots.
void BM_FullEnginePipelined(benchmark::State& state) {
  ScalingFixture& f = Fixture();
  const double latency = static_cast<double>(state.range(0));
  EngineOptions options;
  if (latency > 0.0) {
    options.fault_plan.seed = 20260808;
    options.fault_plan.reorder = true;
    options.fault_plan.default_fault.latency_mean_ms = latency;
    options.fault_plan.default_fault.latency_jitter_ms = latency / 2.0;
    options.fault_plan.default_fault.drop_prob = 0.05;
    options.fault_plan.default_fault.duplicate_prob = 0.05;
    options.fault_plan.site_overrides[1].straggler = true;
    // Deadline below the latency mean: most sites blow at least one
    // deadline, so the retry path dominates.
    options.stage_deadline_ms = latency * 0.4;
    options.max_attempts = 8;
  }
  DistributedEngine engine(&f.partitioning, options);
  size_t retries = 0;
  size_t hedged = 0;
  bool exact = true;
  const double process_cpu_start = ProcessCpuMs();
  for (auto _ : state) {
    auto outcome = engine.Run({f.query, EngineMode::kFull});
    benchmark::DoNotOptimize(outcome);
    retries += outcome.stats.transport_retries;
    hedged += outcome.stats.hedged_sites;
    exact = exact && outcome.exact;
  }
  state.counters["process_cpu_ms"] =
      benchmark::Counter(ProcessCpuMs() - process_cpu_start,
                         benchmark::Counter::kAvgIterations);
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["hedged"] = static_cast<double>(hedged);
  state.counters["exact"] = exact ? 1.0 : 0.0;
}
BENCHMARK(BM_FullEnginePipelined)->Arg(0)->Arg(50);

}  // namespace
}  // namespace gstored

BENCHMARK_MAIN();
