#ifndef GSTORED_CORE_PRUNING_H_
#define GSTORED_CORE_PRUNING_H_

#include <cstddef>
#include <vector>

#include "core/group_schedule.h"
#include "core/lec_feature.h"

namespace gstored {

/// Outcome of the LEC feature-based pruning (Algorithm 2).
struct PruneResult {
  /// survives[i] is true when feature i can participate in some chain of
  /// joinable features whose combined LECSign is all ones (Thm. 4) — i.e.
  /// its LPMs may contribute to a complete crossing match.
  std::vector<bool> survives;

  // Statistics for the evaluation tables.
  size_t num_groups = 0;            ///< LECSign-based feature groups (Def. 10)
  size_t num_join_graph_edges = 0;  ///< edges of the group join graph
  /// FeaturesJoinable probes: the group join graph's bucket probes plus one
  /// per crossing-index candidate of each DFS step (a feature sharing no
  /// mapping with the chain, or in a group whose sign overlaps it, is never
  /// probed).
  size_t join_attempts = 0;
  size_t surviving_features = 0;

  /// True when some seed's join space exceeded `max_joined_features` and
  /// pruning fell back to keeping everything (always safe — pruning is an
  /// optimization, never a correctness requirement).
  bool bailed_out = false;
};

/// Knobs of LecFeaturePruning: the chain join's execution knobs plus the
/// join-space cap.
struct PruneOptions : ChainJoinOptions {
  /// Upper bound on materialized intermediate joined features before the
  /// safe bail-out triggers. Shared fairly across a vmin group's seeds:
  /// each seed DFS gets a budget of max_joined_features / num_seeds
  /// (floor), so the aggregate join space stays capped at the configured
  /// value while the bail-out decision remains a pure function of each
  /// seed alone — and therefore independent of thread count and seed
  /// scheduling. (A global shared counter would reintroduce
  /// scheduling-dependent bail-outs.)
  size_t max_joined_features = 1u << 21;
};

/// Algorithm 2: groups features by LECSign (Def. 10 / Thm. 5), builds the
/// group join graph, and DFS-explores joinable chains from the smallest
/// group outward. Whenever a chain's combined sign reaches all ones, every
/// base feature that contributed to the chain is marked as surviving. The
/// search is the chain join shared with LecAssembly (ChainJoin in
/// core/join_graph.h); pruning's policy carries contributor sets, merges
/// chains equal in (sign, crossing) within a seed's step, charges each
/// fresh chain to the seed's budget and marks survivors in per-slot
/// bitmaps.
///
/// This refines the paper's pseudocode slightly: line 8 of Alg. 2's join
/// procedure inserts whole groups into the result set, whereas we track the
/// exact contributing features per joined chain — strictly more precise and
/// still safe, because every complete match corresponds to some all-ones
/// chain whose members all get marked.
///
/// Survivor marking is a pure union, OR-folded over the slots after each
/// vmin group, so the result is byte-identical for every
/// `options.num_threads` (see "The chain join" in src/core/README.md).
///
/// `num_query_vertices` is |VQ| (the LECSign width).
PruneResult LecFeaturePruning(const std::vector<LecFeature>& features,
                              size_t num_query_vertices,
                              const PruneOptions& options = {});

}  // namespace gstored

#endif  // GSTORED_CORE_PRUNING_H_
