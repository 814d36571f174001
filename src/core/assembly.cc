#include "core/assembly.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/group_schedule.h"
#include "core/join_graph.h"
#include "core/seen_set.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

/// An in-flight joined partial result (the PM_k of Alg. 3).
struct PartialJoin {
  Bitset sign;
  std::vector<CrossingPairMap> crossing;
  Binding binding;
};

uint64_t BindingKey(const Binding& binding) {
  return HashRange(binding.begin(), binding.end());
}

/// Collects complete bindings with deduplication. Insertion consumes the
/// binding — the caller's copy is dead either way, so a duplicate costs one
/// probe and no allocation, and a fresh result is moved, not copied.
class ResultSink {
 public:
  void Add(Binding&& binding) {
    uint64_t key = BindingKey(binding);
    auto [it, inserted] = buckets_.try_emplace(key);
    for (size_t i : it->second) {
      if (results_[i] == binding) return;
    }
    it->second.push_back(results_.size());
    results_.push_back(std::move(binding));
  }

  std::vector<Binding> Take() { return std::move(results_); }

 private:
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  std::vector<Binding> results_;
};

/// Attempts the join of a partial with an LPM; returns true and fills `out`
/// when the features are joinable and the bindings agree. `out` is assigned
/// wholesale (its previous buffers are reused where possible), so one
/// PartialJoin can serve as scratch across many attempts.
bool TryJoin(const PartialJoin& partial, const LocalPartialMatch& pm,
             AssemblyStats* stats, PartialJoin* out) {
  ++stats->join_attempts;
  if (!FeaturesJoinable(partial.sign, partial.crossing, pm.sign,
                        pm.crossing)) {
    return false;
  }
  if (!MergeBindings(partial.binding, pm.binding, &out->binding)) {
    // Thm. 3 says feature-joinability implies binding compatibility for
    // well-formed LPMs; count it so the property tests can assert zero.
    ++stats->binding_conflicts;
    return false;
  }
  out->sign = partial.sign | pm.sign;
  out->crossing = MergeCrossing(partial.crossing, pm.crossing);
  return true;
}

/// Read-only context of one LecAssembly run, shared by every worker slot.
struct AssemblyContext {
  const std::vector<LocalPartialMatch>* lpms;
  std::vector<std::vector<uint32_t>> groups;
  const CrossingIndex<LocalPartialMatch>* index = nullptr;  // over `groups`
  std::vector<std::vector<uint32_t>> adjacency;
  // Mutated only between vmin iterations, on the coordinator thread; frozen
  // while seed DFS walks run.
  std::vector<bool> active;
};

/// Mutable per-slot search state. One instance per worker slot; no slot
/// ever touches another slot's scratch, and everything here is reset (or
/// rebuilt) per seed, so a seed's DFS is a pure function of (seed, context)
/// regardless of which slot runs it — the determinism guarantee.
struct SlotScratch {
  // Per-seed dedup of materialized partials. Seed-local suffices: partials
  // grown from different seeds always differ in binding (two same-sign LPMs
  // bind the same query-vertex set, so equal merged bindings would force
  // equal seeds), hence cross-seed entries can never hit. Cleared per seed
  // rather than shared so pathological inputs (duplicate LPMs) cannot make
  // the output depend on the dynamic seed-to-slot assignment.
  SeenSet seen;
  // Frontier arena: one reusable next-frontier vector per DFS depth, so the
  // join loop stops re-allocating frontier storage on every level. Sized to
  // the deepest possible recursion (one level per group) up front, which
  // keeps element references stable while deeper levels run.
  std::vector<std::vector<PartialJoin>> frontier_arena;
  std::vector<bool> visited;
  std::vector<PartialJoin> seed_frontier;  // always exactly one element
  std::vector<uint32_t> candidates;  // index candidates of one join step
  AssemblyStats stats;

  explicit SlotScratch(size_t num_groups)
      : frontier_arena(num_groups), visited(num_groups, false) {}
};

/// The recursive expansion of Alg. 3's ComParJoin: joins the chains in
/// `frontier` with every LPM of every active group adjacent to the visited
/// set; complete (all-ones) chains emit their binding to `out` in DFS
/// order, incomplete fresh ones recurse. Only the crossing index's
/// candidates are tried, in ascending LPM order, and a group whose sign
/// overlaps the partial's is skipped outright — the joins that succeed,
/// and their order, are those of a full-group scan.
void ComParJoin(const AssemblyContext& ctx, SlotScratch& scratch,
                const std::vector<PartialJoin>& frontier, size_t depth,
                std::vector<Binding>* out) {
  for (uint32_t g = 0; g < ctx.groups.size(); ++g) {
    if (!ctx.active[g] || scratch.visited[g]) continue;
    bool adjacent = false;
    for (uint32_t nb : ctx.adjacency[g]) {
      if (scratch.visited[nb]) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) continue;

    std::vector<PartialJoin>& next = scratch.frontier_arena[depth];
    next.clear();
    PartialJoin joined;
    // Every LPM of a group carries the group's sign (Def. 11).
    const Bitset& group_sign = (*ctx.lpms)[ctx.groups[g].front()].sign;
    for (const PartialJoin& pj : frontier) {
      if (!pj.sign.DisjointWith(group_sign)) continue;
      ctx.index->Candidates(pj.crossing, g, &scratch.candidates);
      for (uint32_t pm_idx : scratch.candidates) {
        if (!TryJoin(pj, (*ctx.lpms)[pm_idx], &scratch.stats, &joined)) {
          continue;
        }
        if (joined.sign.All()) {
          out->push_back(std::move(joined.binding));
          continue;
        }
        if (!scratch.seen.CheckAndInsert(joined.sign, joined.binding)) {
          ++scratch.stats.intermediate_results;
          next.push_back(std::move(joined));
        }
      }
    }
    if (!next.empty()) {
      scratch.visited[g] = true;
      ComParJoin(ctx, scratch, next, depth + 1, out);
      scratch.visited[g] = false;
    }
  }
}

/// One seed's independent DFS: resets the slot scratch to the seed's state
/// and appends every complete binding the chain expansion reaches to `out`
/// (duplicates included — the sink dedups in seed order afterwards).
void RunSeedJoin(const AssemblyContext& ctx, uint32_t vmin, uint32_t pm_idx,
                 SlotScratch& scratch, std::vector<Binding>* out) {
  const LocalPartialMatch& pm = (*ctx.lpms)[pm_idx];
  scratch.seen.Clear();
  scratch.visited.assign(ctx.groups.size(), false);
  scratch.visited[vmin] = true;
  scratch.seed_frontier.clear();
  scratch.seed_frontier.push_back({pm.sign, pm.crossing, pm.binding});
  ComParJoin(ctx, scratch, scratch.seed_frontier, 0, out);
}

void AccumulateJoinStats(const AssemblyStats& from, AssemblyStats* into) {
  into->join_attempts += from.join_attempts;
  into->intermediate_results += from.intermediate_results;
  into->binding_conflicts += from.binding_conflicts;
}

}  // namespace

bool MergeBindings(const Binding& a, const Binding& b, Binding* out) {
  GSTORED_CHECK_EQ(a.size(), b.size());
  out->resize(a.size());
  for (size_t v = 0; v < a.size(); ++v) {
    if (a[v] == kNullTerm) {
      (*out)[v] = b[v];
    } else if (b[v] == kNullTerm || b[v] == a[v]) {
      (*out)[v] = a[v];
    } else {
      return false;
    }
  }
  return true;
}

std::vector<Binding> LecAssembly(const std::vector<LocalPartialMatch>& lpms,
                                 size_t num_query_vertices,
                                 const AssemblyOptions& options,
                                 AssemblyStats* stats) {
  AssemblyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  ResultSink sink;
  if (lpms.empty()) return sink.Take();
  for (const LocalPartialMatch& pm : lpms) {
    GSTORED_CHECK_EQ(pm.sign.size(), num_query_vertices);
  }

  AssemblyContext ctx;
  ctx.lpms = &lpms;

  // Def. 11: group LPMs by LECSign; one crossing index over the groups
  // serves both the group join graph and every DFS step's candidate
  // lookup.
  ctx.groups = GroupBySign(lpms);
  stats->num_groups = ctx.groups.size();
  const CrossingIndex<LocalPartialMatch> index(lpms, ctx.groups);
  ctx.index = &index;
  JoinGraphStats graph_stats;
  ctx.adjacency = index.JoinGraph(&graph_stats);
  stats->join_attempts += graph_stats.join_attempts;
  stats->num_join_graph_edges += graph_stats.num_edges;

  const size_t num_groups = ctx.groups.size();
  ctx.active.assign(num_groups, true);
  DeactivateIsolatedGroups(ctx.adjacency, &ctx.active);

  // Per-slot scratch, built once per call: it grows to the largest slot
  // budget any vmin group asks for and is reused across groups (the stats
  // are folded and reset after each group).
  std::vector<SlotScratch> scratch;

  while (true) {
    uint32_t vmin = SelectMinActiveGroup(ctx.groups, ctx.active);
    if (vmin == kNoGroup) break;
    const std::vector<uint32_t>& seeds = ctx.groups[vmin];

    // Dynamic thread budget: engage several slots only when the seed group
    // is big enough to amortize the pool coordination.
    const size_t slots = JoinSlotBudget(seeds.size(), options.num_threads,
                                        options.min_seeds_per_slot);
    while (scratch.size() < slots) scratch.emplace_back(num_groups);
    // Each seed's emissions are a pure function of its seed, concatenated
    // in seed order, so the sink sees the same sequence — and the output is
    // byte-identical — for every slot count.
    std::vector<Binding> emitted = ParallelForConcat<Binding>(
        options.pool, seeds.size(), slots,
        [&](size_t i, size_t slot, std::vector<Binding>* out) {
          RunSeedJoin(ctx, vmin, seeds[i], scratch[slot], out);
        });
    for (Binding& b : emitted) sink.Add(std::move(b));
    // Per-slot counters sum to the same totals for every slot count: every
    // counted event belongs to exactly one seed's DFS.
    for (size_t slot = 0; slot < slots; ++slot) {
      AccumulateJoinStats(scratch[slot].stats, stats);
      scratch[slot].stats = AssemblyStats();
    }

    ctx.active[vmin] = false;
    DeactivateIsolatedGroups(ctx.adjacency, &ctx.active);
  }
  return sink.Take();
}

std::vector<Binding> LecAssembly(const std::vector<LocalPartialMatch>& lpms,
                                 size_t num_query_vertices,
                                 AssemblyStats* stats) {
  return LecAssembly(lpms, num_query_vertices, AssemblyOptions{}, stats);
}

std::vector<Binding> BasicAssembly(const std::vector<LocalPartialMatch>& lpms,
                                   size_t num_query_vertices,
                                   AssemblyStats* stats) {
  AssemblyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  ResultSink sink;
  if (lpms.empty()) return sink.Take();
  for (const LocalPartialMatch& pm : lpms) {
    GSTORED_CHECK_EQ(pm.sign.size(), num_query_vertices);
  }

  // Worklist join without any grouping: every unique partial is expanded
  // against every LPM. Dedup guarantees termination (signs grow monotonically
  // and there are finitely many (sign, binding) pairs).
  SeenSet seen;

  std::vector<PartialJoin> frontier;
  frontier.reserve(lpms.size());
  for (const LocalPartialMatch& pm : lpms) {
    if (!seen.CheckAndInsert(pm.sign, pm.binding)) {
      ++stats->intermediate_results;
      frontier.push_back({pm.sign, pm.crossing, pm.binding});
    }
  }

  while (!frontier.empty()) {
    std::vector<PartialJoin> next;
    PartialJoin joined;
    for (const PartialJoin& pj : frontier) {
      for (const LocalPartialMatch& pm : lpms) {
        if (!TryJoin(pj, pm, stats, &joined)) continue;
        if (joined.sign.All()) {
          sink.Add(std::move(joined.binding));
          continue;
        }
        if (!seen.CheckAndInsert(joined.sign, joined.binding)) {
          ++stats->intermediate_results;
          next.push_back(std::move(joined));
        }
      }
    }
    frontier = std::move(next);
  }
  return sink.Take();
}

}  // namespace gstored
