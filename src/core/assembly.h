#ifndef GSTORED_CORE_ASSEMBLY_H_
#define GSTORED_CORE_ASSEMBLY_H_

#include <cstdint>
#include <vector>

#include "core/lec_feature.h"
#include "core/local_partial_match.h"

namespace gstored {

class ThreadPool;

/// Statistics of one assembly run, used by the ablation benchmarks to show
/// the join-space reduction of the LEC grouping.
struct AssemblyStats {
  /// Pairwise join tests evaluated. LecAssembly counts the group join
  /// graph's bucket probes plus one per crossing-index candidate of each
  /// DFS step; BasicAssembly tests every (partial, LPM) pair.
  size_t join_attempts = 0;
  size_t intermediate_results = 0; ///< distinct partial joins materialized
  size_t binding_conflicts = 0;    ///< joins rejected on binding mismatch
                                   ///< (Thm. 3 predicts 0 for valid inputs)
  size_t num_groups = 0;           ///< LECSign groups (LEC mode only)
  size_t num_join_graph_edges = 0; ///< group join graph edges (LEC mode)
};

/// Merges two partial bindings; returns false on a conflict (same query
/// vertex bound to different graph vertices). Exposed for testing.
bool MergeBindings(const Binding& a, const Binding& b, Binding* out);

/// Execution-layer knobs for LecAssembly, orthogonal to the algorithm.
struct AssemblyOptions {
  /// Maximum worker slots for the join. The seeds of each vmin group run
  /// through one ParallelForConcat: every seed's DFS runs with slot-local
  /// scratch and emits into a per-seed vector, and the vectors are fed to
  /// the dedup sink in seed order — so the output is byte-identical for
  /// every slot count. One slot runs the seeds inline on the caller.
  size_t num_threads = 1;

  /// Pool supplying the extra slots; nullptr = ThreadPool::Shared(). The
  /// calling (coordinator) thread always participates, so a pool busy with
  /// site-side work degrades throughput, never correctness.
  ThreadPool* pool = nullptr;

  /// Dynamic thread-budget quota (see JoinSlotBudget in group_schedule.h):
  /// a vmin group engages one slot per this many seeds, so tiny groups skip
  /// pool coordination entirely. The default amortizes the ParallelFor
  /// barrier over a few DFS walks; tests set 1 to force several slots on
  /// small fixtures.
  size_t min_seeds_per_slot = 4;
};

/// Algorithm 3: LEC feature-based assembly. Groups the LPMs by LECSign
/// (Def. 11 / Thm. 5), builds the group join graph, and DFS-joins across
/// groups from the smallest group outward; a chain whose combined sign is
/// all ones yields a complete crossing match. Returns deduplicated full
/// bindings. One crossing-mapping index (core/join_graph.h) builds the
/// group join graph and lists, at each DFS step, the only LPMs of the next
/// group that can join the partial.
///
/// The join is seed-major: each LPM of the current vmin group seeds one
/// independent DFS (its dedup state is seed-local — partials grown from
/// different seeds can never collide, see the threading notes in
/// src/core/README.md), and the per-seed emissions are deduplicated in seed
/// order. This makes the result independent of `options.num_threads`.
std::vector<Binding> LecAssembly(const std::vector<LocalPartialMatch>& lpms,
                                 size_t num_query_vertices,
                                 const AssemblyOptions& options,
                                 AssemblyStats* stats = nullptr);

/// One-slot convenience overload (default AssemblyOptions).
std::vector<Binding> LecAssembly(const std::vector<LocalPartialMatch>& lpms,
                                 size_t num_query_vertices,
                                 AssemblyStats* stats = nullptr);

/// The unoptimized "partial evaluation and assembly" baseline: a worklist
/// join without LECSign grouping or a join graph — every materialized
/// partial result is tested against every LPM. Produces the same matches as
/// LecAssembly with a much larger join space (the gStoreD-Basic bar of
/// Fig. 9).
std::vector<Binding> BasicAssembly(const std::vector<LocalPartialMatch>& lpms,
                                   size_t num_query_vertices,
                                   AssemblyStats* stats = nullptr);

}  // namespace gstored

#endif  // GSTORED_CORE_ASSEMBLY_H_
