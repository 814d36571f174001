#ifndef GSTORED_BENCH_BENCH_COMMON_H_
#define GSTORED_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "partition/partitioners.h"
#include "workload/workload.h"

namespace gstored::bench {

/// Prints the Tables I-III per-stage breakdown for every query of the
/// workload: candidate-exchange time/shipment, partial-evaluation time, LEC
/// optimization time/shipment, assembly time, total, and the LPM / crossing
/// match / match counts. Runs the full gStoreD engine over a hash
/// partitioning with `num_sites` sites.
void RunPerStageTable(const std::string& title, const Workload& workload,
                      int num_sites);

/// Prints the Fig. 9 ablation: response time of gStoreD-Basic / -LA / -LO /
/// gStoreD for every non-star query of the workload, the assembly join
/// attempts of Basic and gStoreD, and each mode's total shipment (Alg. 4
/// candidates, LEC features and LPMs, from QueryStats).
void RunOptimizationAblation(const std::string& title,
                             const Workload& workload, int num_sites);

/// Builds the three studied partitionings (hash, semantic hash, METIS-like).
std::vector<Partitioning> BuildStudiedPartitionings(const Dataset& dataset,
                                                    int num_sites);

/// Formats a byte count as KB with one decimal (the paper's unit).
std::string Kb(size_t bytes);

/// Repeats a query `iters` times and returns the median total time in ms.
double MedianQueryMillis(DistributedEngine& engine, const QueryGraph& query,
                         EngineMode mode, int iters = 3);

}  // namespace gstored::bench

#endif  // GSTORED_BENCH_BENCH_COMMON_H_
