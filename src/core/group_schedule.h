#ifndef GSTORED_CORE_GROUP_SCHEDULE_H_
#define GSTORED_CORE_GROUP_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gstored {

class ThreadPool;

/// The execution knobs of the chain join (ChainJoin in core/join_graph.h),
/// shared by PruneOptions (Alg. 2) and AssemblyOptions (Alg. 3) and
/// orthogonal to both algorithms.
struct ChainJoinOptions {
  /// Maximum worker slots for the join. The seeds of each vmin group run
  /// through one ParallelFor, each seed's DFS with slot-local scratch; the
  /// group fold makes the result byte-identical for every slot count. One
  /// slot runs the seeds inline on the caller.
  size_t num_threads = 1;

  /// Pool supplying the extra slots; nullptr = ThreadPool::Shared(). The
  /// calling (coordinator) thread always participates, so a pool busy with
  /// site-side work degrades throughput, never correctness.
  ThreadPool* pool = nullptr;

  /// Dynamic thread-budget quota (JoinSlotBudget below): a vmin group
  /// engages one slot per this many seeds, so tiny groups skip pool
  /// coordination entirely. The default amortizes the ParallelFor barrier
  /// over a few DFS walks; tests set 1 to force several slots on small
  /// fixtures.
  size_t min_seeds_per_slot = 4;
};

/// Sentinel returned by SelectMinActiveGroup when no group is active.
inline constexpr uint32_t kNoGroup = static_cast<uint32_t>(-1);

/// The vmin selection of the chain join: the active group with the fewest
/// members, lowest index on ties, or kNoGroup when none is active. The join
/// seeds its DFS walks from this group and retires it afterwards.
uint32_t SelectMinActiveGroup(const std::vector<std::vector<uint32_t>>& groups,
                              const std::vector<bool>& active);

/// The chain join's outlier-removal fixpoint: repeatedly deactivates every
/// active group with no active neighbor in the group join graph. Such a
/// group can never participate in a multi-group chain, and retiring one can
/// isolate others, hence the fixpoint.
void DeactivateIsolatedGroups(
    const std::vector<std::vector<uint32_t>>& adjacency,
    std::vector<bool>* active);

/// Dynamic per-call thread budget for a seed-group join: the number of
/// worker slots worth engaging for `num_seeds` independent seed DFS walks
/// when the caller allows up to `num_threads` slots. Each slot must own at
/// least `min_seeds_per_slot` seeds — below that the per-seed work cannot
/// amortize pool coordination (queueing the helpers, the completion
/// barrier), so tiny groups run serially on the caller's thread. Returns a
/// value in [1, min(num_threads, num_seeds)].
size_t JoinSlotBudget(size_t num_seeds, size_t num_threads,
                      size_t min_seeds_per_slot);

/// Quota behind SiteSlotBudget: one intra-site worker slot is engaged per
/// this many fragment triples. Below one quota the per-slot search work
/// cannot amortize pool coordination (queueing helpers, the completion
/// barrier), so small sites run their matching and LPM enumeration
/// serially no matter what the engine-level knob says.
inline constexpr size_t kSiteTriplesPerSlot = 2048;

/// Dynamic per-site thread budget for intra-site matching and LPM
/// enumeration: scales the engine-level `num_threads` knob to the
/// fragment's size (JoinSlotBudget with the kSiteTriplesPerSlot quota)
/// instead of handing every site the same fixed slot count. Returns a
/// value in [1, num_threads]. Results are unaffected — the matcher and
/// enumerator are byte-identical across thread counts — only coordination
/// overhead changes.
size_t SiteSlotBudget(size_t fragment_triples, size_t num_threads);

/// Query-shape-aware variant: additionally caps the budget by the planner's
/// estimated candidate count for the chosen start vertex, since the parallel
/// matcher partitions across the start's candidate domain — a selective star
/// gets fewer slots than its fragment size alone suggests. Returns a value
/// in [1, num_threads].
size_t SiteSlotBudget(size_t fragment_triples, size_t num_threads,
                      size_t est_start_candidates);

}  // namespace gstored

#endif  // GSTORED_CORE_GROUP_SCHEDULE_H_
