// Serving-layer throughput: a mixed LQ1-LQ7 stream arrives open-loop (fixed
// inter-arrival gap, independent of completions) at a ServingEngine running
// 1 / 4 / 8 queries in flight, versus a serial baseline that executes the
// same stream one at a time on the bare engine with no caches. Both sides
// get the same thread budget; the win on a 1-CPU CI container therefore
// comes from the serving caches (plan / result), not raw parallelism —
// repeated templates skip order scoring and repeated instances skip stages
// A-D entirely. Reported per configuration: CPU-time QPS (queries per second
// of process CPU burned, the machine-budget metric the acceptance gate
// uses), wall QPS, and p50/p99 submit-to-completion latency.
//
// A second, dup-heavy section models the cold-cache dogpile: every arrival
// is a back-to-back burst of 8 identical submissions, with the result cache
// disabled so in-flight request coalescing is the only dedup mechanism. It
// runs once with coalescing on (one leader per burst executes, the rest
// receive copies) and once with it off (every duplicate executes), and
// reports the CPU-QPS ratio between the two.
//
// Acceptance (exit code): every served outcome byte-identical to the serial
// answer, the plan cache observed hits, CPU-time QPS at 8 in flight at
// least 2x the serial baseline, and the dup-heavy coalescing on/off ratio
// at least 1.5x with strictly fewer engine executions.
//
// --json <path> additionally writes the measurements in the hand-written
// baseline format bench/check_bench_regression.py accepts (cpu_time_ns per
// query plus a higher-is-better "qps" field on the served rows), and each
// served run's engine executions and plan-cache misses and hits, which the
// CI gate pins exactly.

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "partition/partitioners.h"
#include "serve/scheduler.h"
#include "workload/lubm.h"

using namespace gstored;  // NOLINT — bench-local convenience
using gstored::serve::QueryTicket;
using gstored::serve::ServeOptions;
using gstored::serve::ServingEngine;

namespace {

constexpr int kRounds = 16;          // stream = kRounds passes over LQ1-LQ7
constexpr int kLanes = 4;            // client lanes the submitter cycles over
constexpr int kArrivalGapUs = 200;   // open-loop inter-arrival gap
constexpr size_t kTotalSlots = 8;    // shared intra-query worker budget

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct StreamItem {
  const QueryGraph* query = nullptr;
  const std::vector<Binding>* expected = nullptr;
  const char* name = "";
};

struct RunReport {
  double cpu_qps = 0.0;
  double wall_qps = 0.0;
  double cpu_per_query_ns = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t mismatches = 0;
  ServingEngine::Counters counters;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5));
  return sorted[idx];
}

/// Serial baseline: the bare engine, one query at a time, recomputing
/// everything. This is what a deployment without the serving layer does per
/// request, so it is the denominator of the speedup.
RunReport RunSerial(DistributedEngine& engine,
                    const std::vector<StreamItem>& stream) {
  RunReport r;
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  for (const StreamItem& item : stream) {
    const auto t0 = std::chrono::steady_clock::now();
    QueryOutcome outcome = engine.Run({*item.query, EngineMode::kFull});
    latencies.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (!outcome.exact || outcome.matches != *item.expected) ++r.mismatches;
  }
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const double n = static_cast<double>(stream.size());
  r.cpu_qps = n / cpu;
  r.wall_qps = n / wall;
  r.cpu_per_query_ns = cpu * 1e9 / n;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p99_ms = Percentile(latencies, 0.99);
  return r;
}

/// One serving configuration: a fresh ServingEngine (cold caches, so the
/// measurement includes its own warm-up round), the whole stream submitted
/// open-loop, then everything awaited and verified against the serial
/// answers.
RunReport RunServed(const DistributedEngine& engine,
                    const std::vector<StreamItem>& stream,
                    size_t max_inflight) {
  ServeOptions options;
  options.max_inflight = max_inflight;
  options.total_slots = kTotalSlots;
  ServingEngine server(&engine, options);

  RunReport r;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(stream.size());
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    tickets.push_back(server.Submit(*stream[i].query,
                                    {.lane = static_cast<int>(i % kLanes)}));
    // Open loop: the next arrival happens on schedule whether or not the
    // previous query finished. Sleeping burns no CPU time, so the CPU-QPS
    // numerator is unaffected by the pacing.
    std::this_thread::sleep_for(std::chrono::microseconds(kArrivalGapUs));
  }
  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& outcome = tickets[i]->Wait();
    latencies.push_back(tickets[i]->latency_ms());
    if (!outcome.exact || outcome.matches != *stream[i].expected) {
      ++r.mismatches;
    }
  }
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const double n = static_cast<double>(stream.size());
  r.cpu_qps = n / cpu;
  r.wall_qps = n / wall;
  r.cpu_per_query_ns = cpu * 1e9 / n;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p99_ms = Percentile(latencies, 0.99);
  r.counters = server.counters();
  return r;
}

/// Dup-heavy open-loop run: the stream arrives as back-to-back bursts of
/// identical submissions (kDupBurst copies of one query, then the next
/// query's burst) — the cold-cache dogpile shape. The result cache is OFF
/// so the only dedup mechanism in play is in-flight coalescing: with it
/// on, one leader per burst executes and the rest fan out; with it off,
/// every duplicate burns a full execution. The CPU-QPS ratio between the
/// two is the coalescing win the acceptance gate checks.
RunReport RunDupHeavy(const DistributedEngine& engine,
                      const std::vector<StreamItem>& stream,
                      size_t dup_burst, bool coalesce) {
  ServeOptions options;
  options.max_inflight = 8;
  options.total_slots = kTotalSlots;
  options.use_result_cache = false;
  options.coalesce_inflight = coalesce;
  ServingEngine server(&engine, options);

  RunReport r;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(stream.size() * dup_burst);
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t d = 0; d < dup_burst; ++d) {
      tickets.push_back(server.Submit(
          *stream[i].query, {.lane = static_cast<int>(d % kLanes)}));
    }
    // Open loop between bursts; the burst itself arrives back-to-back.
    std::this_thread::sleep_for(std::chrono::microseconds(kArrivalGapUs));
  }
  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& outcome = tickets[i]->Wait();
    latencies.push_back(tickets[i]->latency_ms());
    if (!outcome.exact ||
        outcome.matches != *stream[i / dup_burst].expected) {
      ++r.mismatches;
    }
  }
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const double n = static_cast<double>(tickets.size());
  r.cpu_qps = n / cpu;
  r.wall_qps = n / wall;
  r.cpu_per_query_ns = cpu * 1e9 / n;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p99_ms = Percentile(latencies, 0.99);
  r.counters = server.counters();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  }

  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);

  // Serial answers double as the correctness oracle for every served run.
  std::vector<std::vector<Binding>> expected;
  expected.reserve(w.queries.size());
  for (const BenchmarkQuery& bq : w.queries) {
    expected.push_back(engine.Run({bq.query, EngineMode::kFull}).matches);
  }
  std::vector<StreamItem> stream;
  stream.reserve(w.queries.size() * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      stream.push_back(
          {&w.queries[q].query, &expected[q], w.queries[q].name.c_str()});
    }
  }

  std::printf(
      "=== Serving throughput (LUBM-3, 4 sites, %zu-query mixed LQ1-LQ7 "
      "stream, open-loop %dus gap) ===\n",
      stream.size(), kArrivalGapUs);
  std::printf("%-10s | %10s | %10s | %9s | %9s | %6s | %6s\n", "config",
              "cpuQPS", "wallQPS", "p50 ms", "p99 ms", "plan+", "res+");

  const RunReport serial = RunSerial(engine, stream);
  std::printf("%-10s | %10.1f | %10.1f | %9.3f | %9.3f | %6s | %6s\n",
              "serial", serial.cpu_qps, serial.wall_qps, serial.p50_ms,
              serial.p99_ms, "-", "-");

  const size_t kInflightLevels[] = {1, 4, 8};
  RunReport served[3];
  for (int i = 0; i < 3; ++i) {
    served[i] = RunServed(engine, stream, kInflightLevels[i]);
    char name[24];
    std::snprintf(name, sizeof(name), "served/%zu", kInflightLevels[i]);
    std::printf("%-10s | %10.1f | %10.1f | %9.3f | %9.3f | %6zu | %6zu\n",
                name, served[i].cpu_qps, served[i].wall_qps, served[i].p50_ms,
                served[i].p99_ms, served[i].counters.plan_hits,
                served[i].counters.result_hits);
  }

  // Dup-heavy bursts: 8 identical arrivals at a time, coalescing on vs off
  // (result cache disabled on both sides, so the delta is coalescing
  // alone). One pass over LQ1-LQ7 per round keeps the runtime CI-sized.
  constexpr size_t kDupBurst = 8;
  constexpr int kDupRounds = 4;
  std::vector<StreamItem> dup_stream;
  dup_stream.reserve(w.queries.size() * kDupRounds);
  for (int round = 0; round < kDupRounds; ++round) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      dup_stream.push_back(
          {&w.queries[q].query, &expected[q], w.queries[q].name.c_str()});
    }
  }
  std::printf(
      "--- dup-heavy: bursts of %zu identical arrivals, result cache off "
      "---\n",
      kDupBurst);
  const RunReport coalesce_on =
      RunDupHeavy(engine, dup_stream, kDupBurst, /*coalesce=*/true);
  const RunReport coalesce_off =
      RunDupHeavy(engine, dup_stream, kDupBurst, /*coalesce=*/false);
  std::printf(
      "%-10s | %10.1f | %10.1f | %9.3f | %9.3f | exec=%zu coal=%zu\n",
      "dup/on", coalesce_on.cpu_qps, coalesce_on.wall_qps, coalesce_on.p50_ms,
      coalesce_on.p99_ms, coalesce_on.counters.executed,
      coalesce_on.counters.coalesced);
  std::printf(
      "%-10s | %10.1f | %10.1f | %9.3f | %9.3f | exec=%zu coal=%zu\n",
      "dup/off", coalesce_off.cpu_qps, coalesce_off.wall_qps,
      coalesce_off.p50_ms, coalesce_off.p99_ms,
      coalesce_off.counters.executed, coalesce_off.counters.coalesced);

  const double speedup = served[2].cpu_qps / serial.cpu_qps;
  const double coalesce_ratio = coalesce_on.cpu_qps / coalesce_off.cpu_qps;
  size_t mismatches =
      serial.mismatches + coalesce_on.mismatches + coalesce_off.mismatches;
  // Plan-cache hits are counted across every run. In the mixed stream the
  // serving layer now dedups so well (result cache + coalescing) that each
  // template executes exactly once and never re-reaches the plan lookup;
  // the dup-heavy runs execute repeats with the result cache off, so they
  // are where the plan cache shows its hits.
  size_t plan_hits = coalesce_on.counters.plan_hits +
                     coalesce_off.counters.plan_hits;
  for (const RunReport& r : served) {
    mismatches += r.mismatches;
    plan_hits += r.counters.plan_hits;
  }
  std::printf(
      "summary: cpu-QPS speedup at 8 in flight = %.2fx (gate: >= 2.0x), "
      "dup-heavy coalescing ratio = %.2fx (gate: >= 1.5x, executed %zu vs "
      "%zu), mismatched outcomes = %zu, plan-cache hits = %zu\n",
      speedup, coalesce_ratio, coalesce_on.counters.executed,
      coalesce_off.counters.executed, mismatches, plan_hits);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    std::fprintf(
        f, "    { \"name\": \"BM_ServingSerial\", \"cpu_time_ns\": %.0f },\n",
        serial.cpu_per_query_ns);
    auto served_row = [&](const std::string& name, const RunReport& r,
                          bool last) {
      std::fprintf(f,
                   "    { \"name\": \"%s\", \"cpu_time_ns\": %.0f, "
                   "\"qps\": %.1f, \"executed\": %zu, \"plan_misses\": %zu, "
                   "\"plan_hits\": %zu }%s\n",
                   name.c_str(), r.cpu_per_query_ns, r.cpu_qps,
                   r.counters.executed, r.counters.plan_misses,
                   r.counters.plan_hits, last ? "" : ",");
    };
    for (int i = 0; i < 3; ++i) {
      served_row("BM_ServingThroughput/" + std::to_string(kInflightLevels[i]),
                 served[i], false);
    }
    served_row("BM_ServingDupHeavy/coalesce_on", coalesce_on, false);
    served_row("BM_ServingDupHeavy/coalesce_off", coalesce_off, true);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Coalescing must both save CPU (>= 1.5x QPS per CPU-second) and visibly
  // dedup (fewer engine executions than the ablation ran).
  const bool coalescing_ok =
      coalesce_ratio >= 1.5 &&
      coalesce_on.counters.executed < coalesce_off.counters.executed;
  return (mismatches == 0 && plan_hits > 0 && speedup >= 2.0 &&
          coalescing_ok)
             ? 0
             : 1;
}
