#ifndef GSTORED_CORE_ASSEMBLY_H_
#define GSTORED_CORE_ASSEMBLY_H_

#include <cstdint>
#include <vector>

#include "core/group_schedule.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"

namespace gstored {

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

/// Execution-layer knobs for LecAssembly: exactly the chain join's.
struct AssemblyOptions : ChainJoinOptions {};

/// Algorithm 3: LEC feature-based assembly. Groups the LPMs by LECSign
/// (Def. 11 / Thm. 5), builds the group join graph, and DFS-joins across
/// groups from the smallest group outward; a chain whose combined sign is
/// all ones yields a complete crossing match. Returns deduplicated full
/// bindings. The search is the chain join shared with LecFeaturePruning
/// (ChainJoin in core/join_graph.h); assembly's policy carries a binding,
/// merges bindings on each join, dedups (sign, binding) over the whole
/// seed and emits complete bindings.
///
/// Each seed's dedup state is seed-local — partials grown from different
/// seeds can never collide, see "The chain join" in src/core/README.md —
/// and the per-seed emissions reach the dedup sink in seed order. This
/// makes the result independent of `options.num_threads`.
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
