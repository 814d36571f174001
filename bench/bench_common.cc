#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>

#include "util/stopwatch.h"

namespace gstored::bench {

std::string Kb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / 1024.0);
  return buf;
}

void RunPerStageTable(const std::string& title, const Workload& workload,
                      int num_sites) {
  Partitioning partitioning =
      HashPartitioner().Partition(*workload.dataset, num_sites);
  DistributedEngine engine(&partitioning);

  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("dataset=%s triples=%zu sites=%d crossing_edges=%zu\n",
              workload.name.c_str(), workload.dataset->graph().num_triples(),
              num_sites, partitioning.num_crossing_edges());
  std::printf(
      "%-5s %-4s | %9s %9s | %9s | %9s %9s | %9s | %9s | %8s %8s %8s\n",
      "query", "sel", "cand(ms)", "cand(KB)", "lpm(ms)", "lec(ms)", "lec(KB)",
      "asm(ms)", "total(ms)", "#lpm", "#cross", "#match");
  for (const BenchmarkQuery& bq : workload.queries) {
    const QueryStats stats = engine.Run({bq.query, EngineMode::kFull}).stats;
    std::printf(
        "%-5s %-4s | %9.1f %9s | %9.1f | %9.1f %9s | %9.1f | %9.1f | %8zu "
        "%8zu %8zu\n",
        bq.name.c_str(), stats.selective ? "yes" : "no",
        stats.candidate_time_ms, Kb(stats.candidate_shipment_bytes).c_str(),
        stats.partial_eval_time_ms, stats.lec_prune_time_ms,
        Kb(stats.lec_shipment_bytes).c_str(), stats.assembly_time_ms,
        stats.total_time_ms, stats.num_lpms, stats.num_crossing_matches,
        stats.num_matches);
  }
}

void RunOptimizationAblation(const std::string& title,
                             const Workload& workload, int num_sites) {
  Partitioning partitioning =
      HashPartitioner().Partition(*workload.dataset, num_sites);
  DistributedEngine engine(&partitioning);

  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-5s | %11s %11s %11s %11s | %11s %11s | %9s %9s %9s %9s\n",
              "query", "Basic(ms)", "LA(ms)", "LO(ms)", "gStoreD(ms)",
              "Basic jn", "gStoreD jn", "Basic KB", "LA KB", "LO KB",
              "gStoreD KB");
  for (const BenchmarkQuery& bq : workload.queries) {
    if (bq.query.IsStar()) continue;  // the paper ablates non-star queries
    double times[4];
    size_t joins[4];
    size_t shipped[4];
    EngineMode modes[4] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                           EngineMode::kLecPruning, EngineMode::kFull};
    for (int m = 0; m < 4; ++m) {
      Stopwatch watch;
      const QueryStats stats = engine.Run({bq.query, modes[m]}).stats;
      times[m] = watch.ElapsedMillis();
      joins[m] = stats.assembly.join_attempts;
      shipped[m] = stats.candidate_shipment_bytes + stats.lec_shipment_bytes +
                   stats.lpm_shipment_bytes;
    }
    std::printf(
        "%-5s | %11.1f %11.1f %11.1f %11.1f | %11zu %11zu | %9s %9s %9s "
        "%9s\n",
        bq.name.c_str(), times[0], times[1], times[2], times[3], joins[0],
        joins[3], Kb(shipped[0]).c_str(), Kb(shipped[1]).c_str(),
        Kb(shipped[2]).c_str(), Kb(shipped[3]).c_str());
  }
}

std::vector<Partitioning> BuildStudiedPartitionings(const Dataset& dataset,
                                                    int num_sites) {
  std::vector<Partitioning> out;
  out.push_back(HashPartitioner().Partition(dataset, num_sites));
  out.push_back(SemanticHashPartitioner().Partition(dataset, num_sites));
  out.push_back(MetisLikePartitioner().Partition(dataset, num_sites));
  return out;
}

double MedianQueryMillis(DistributedEngine& engine, const QueryGraph& query,
                         EngineMode mode, int iters) {
  std::vector<double> times;
  times.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    Stopwatch watch;
    engine.Run({query, mode});
    times.push_back(watch.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace gstored::bench
