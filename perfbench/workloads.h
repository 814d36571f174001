// Workload definitions of the perf benchmark: what each workload deploys
// (dataset, partitioning, engine, optional serving layer), which distinct
// queries it runs, in which seeded order, and their reference answers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "partition/partitioning.h"
#include "serve/scheduler.h"
#include "sparql/query_graph.h"
#include "workload/workload.h"

namespace perfbench {

using gstored::Binding;

enum class WorkloadKind { kLubmComplex, kYagoLossy, kServeZipf };

/// Parses a workload name ("lubm-complex", "yago-lossy", "serve-zipf").
/// Returns false for an unknown name.
bool ParseWorkloadKind(const std::string& name, WorkloadKind* kind);

/// Half the hardware threads: the engine threads of the single-client
/// workloads, and serve-zipf's clients, in-flight queries and slots. At the
/// full count the machine is oversubscribed (every stage of every in-flight
/// query runs one thread per site) and the figures spread 25-30% between
/// runs.
size_t BenchThreads();

/// Everything setup builds, declared so that members are destroyed in
/// dependency order (server, engine, partitioning, dataset).
struct Deployment {
  gstored::Workload workload;
  std::unique_ptr<gstored::Partitioning> partitioning;
  std::unique_ptr<gstored::DistributedEngine> engine;
  std::unique_ptr<gstored::serve::ServingEngine> server;  // serve-zipf only
  gstored::FaultPlan fault_plan;  // carried by every query session
};

/// Wall time of each setup layer and the heap the deployment holds.
struct SetupTiming {
  double generate_s = 0.0;   // dataset generation
  double partition_s = 0.0;  // hash partitioning + fragment build
  double store_s = 0.0;      // engine constructor: stores and statistics
  double serve_s = 0.0;      // ServingEngine start (serve-zipf only)
  double total_s = 0.0;
  double heap_mb = 0.0;      // heap held by the whole deployment
  double store_mb = 0.0;     // heap held by the engine's stores
};

/// Builds one deployment of `kind` from `seed` and times its layers. The
/// single-threaded part runs pinned to the `build`-th allowed CPU in turn: a
/// single thread stays on the CPU it starts on, and on a shared host one CPU
/// can run 30% slower than the others for minutes, so without the pin a
/// run's builds all read fast or all slow by luck of placement.
std::unique_ptr<Deployment> BuildDeployment(WorkloadKind kind, uint64_t seed,
                                            size_t build,
                                            SetupTiming* timing);

/// One distinct query of a workload: the SPARQL text a client hands over,
/// the graph parsed from it, and the answer computed by a path that shares
/// no code with partial evaluation, pruning, assembly or serving.
struct DistinctQuery {
  std::string name;
  std::string sparql;
  gstored::QueryGraph graph;
  std::vector<Binding> reference;  // sorted, duplicate-free
};

/// The queries of a workload and the order the closed loop replays them in.
struct QueryMix {
  std::vector<DistinctQuery> distinct;
  /// Single-client workloads: one seeded shuffle of the class mix, replayed
  /// whole and in the same order every time, so per-query averages over
  /// whole blocks repeat exactly for a seed.
  std::vector<uint32_t> block;
  /// serve-zipf: Zipf(0.6) weights over a seeded permutation of `distinct`
  /// (cumulative, for inverse-CDF draws).
  std::vector<double> zipf_cdf;
  std::vector<uint32_t> zipf_order;
  /// Which oracle produced the reference answers.
  std::string oracle;
};

/// Builds the query mix of `kind` over a deployment and computes every
/// distinct query's reference answer (not part of setup time).
QueryMix BuildQueryMix(WorkloadKind kind, uint64_t seed,
                       const Deployment& deployment);

/// The fault plan of one query session: the workload's plan reseeded by the
/// session id. Fault draws hash only the plan seed and the message
/// coordinates, so without this every query of a class would hit the same
/// faults; with it, a block's positions sample different fault patterns.
gstored::FaultPlan SessionFaultPlan(const gstored::FaultPlan& plan,
                                    uint32_t session_id);

/// Draws one distinct-query index from the mix's Zipf distribution.
uint32_t DrawZipf(const QueryMix& mix, uint64_t random_bits);

/// Regenerates SPARQL text from a parsed query graph. Parsing the text
/// again yields the same vertex numbering.
std::string ToSparql(const gstored::QueryGraph& query);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
