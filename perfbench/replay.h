// Traced replay: re-runs one query's kFull pipeline through the engine's
// public layer functions, timing each call from outside the program.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// One timed call into a layer. `parent` is the index of the enclosing span
/// (-1 for a query's root); `site` is -1 for coordinator-side calls.
struct Span {
  const char* name = "";
  int32_t parent = -1;
  int32_t site = -1;
  uint32_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store, written out once at the end of the run. Begin and
/// End are thread-safe: unit-order planning spans open on pool threads.
class SpanLog {
 public:
  SpanLog();

  int32_t Begin(const char* name, int32_t parent, int32_t site,
                uint32_t query);
  /// Closes span `id` and returns its duration in milliseconds.
  double End(int32_t id);

  /// Number of spans logged so far.
  size_t size() const;
  /// Drops every span after the first `size`: the spans of a replay that is
  /// repeated. None of them may still be open.
  void Truncate(size_t size);

  /// Writes one JSON object per span and line. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path,
                      const std::vector<std::string>& query_names) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Per-query layer figures of one replay. Per-site layers report the
/// slowest site, since sites run in parallel inside Run.
struct ReplayResult {
  std::vector<gstored::Binding> matches;

  double wall_ms = 0.0;  // root span
  double parse_us = 0.0;
  double resolve_us = 0.0;
  double plan_ms = 0.0;      // site match order + unit orders, max over sites
  double exchange_ms = 0.0;
  double match_ms = 0.0;     // max over sites
  double lpm_enum_ms = 0.0;  // self time (unit-order planning excluded)
  double features_ms = 0.0;  // max over sites
  double prune_ms = 0.0;
  double assembly_ms = 0.0;
  double dedup_ms = 0.0;
  /// Parallel critical path of the layers above, as Run sequences them:
  /// parse + resolve + exchange + max over sites of (plan + match + enum)
  /// + features + prune + assembly + dedup.
  double critical_path_ms = 0.0;

  size_t exchange_bytes = 0;
  size_t exchange_variables = 0;
  size_t exchange_skipped = 0;
  size_t lpms = 0;
  size_t features = 0;
  size_t surviving_features = 0;
  size_t prune_join_attempts = 0;
  size_t assembly_join_attempts = 0;
  size_t crossing_matches = 0;
};

/// Replays `sparql` over `engine`'s stores at kFull: ParseSparql,
/// ResolveQuery, ExchangeInternalCandidates over a QuerySession carrying
/// `fault_plan`, and per site PlanSiteMatchOrder, MatchQuery,
/// EnumerateLocalPartialMatches (PlanIslandUnitOrder inside) and
/// ComputeLecFeatures, then LecFeaturePruning, LecAssembly and
/// DedupBindings. Spans go to `log` under `query_id`.
ReplayResult ReplayQuery(const gstored::DistributedEngine& engine,
                         const std::string& sparql,
                         const gstored::FaultPlan& fault_plan,
                         uint32_t session_id, uint32_t query_id,
                         SpanLog* log);

/// Planner quality of one query, summed or folded over sites: the search-
/// tree nodes CountIntermediateResults explores on each site's planned
/// order, and the q-error of the planner's estimate against that count.
struct PlanQuality {
  double match_nodes = 0.0;   // sum over sites
  double log_q_error = 0.0;   // sum over planned sites of ln(q-error)
  size_t planned_sites = 0;
};
PlanQuality MeasurePlanQuality(const gstored::DistributedEngine& engine,
                               const gstored::QueryGraph& query);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
