#include "core/pruning.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "core/group_schedule.h"
#include "core/join_graph.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

/// An in-flight chain of joined LEC features (the LF_k of Alg. 2).
struct JoinedFeature {
  Bitset sign;
  std::vector<CrossingPairMap> crossing;
  std::vector<uint32_t> contributors;  // sorted base feature indices
};

uint64_t JoinedKey(const Bitset& sign,
                   const std::vector<CrossingPairMap>& crossing) {
  uint64_t h = sign.Hash();
  for (const CrossingPairMap& c : crossing) {
    h = HashCombine(h, (static_cast<uint64_t>(c.q_from) << 32) | c.q_to);
    h = HashCombine(h, (static_cast<uint64_t>(c.d_from) << 32) | c.d_to);
  }
  return h;
}

void MergeContributors(std::vector<uint32_t>* into,
                       const std::vector<uint32_t>& from) {
  std::vector<uint32_t> merged;
  merged.reserve(into->size() + from.size());
  std::merge(into->begin(), into->end(), from.begin(), from.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  *into = std::move(merged);
}

/// Read-only context of one LecFeaturePruning run, shared by every worker
/// slot. `active` mutates only between vmin iterations, on the coordinator
/// thread; frozen while seed DFS walks run.
struct PruneContext {
  const std::vector<LecFeature>* features;
  std::vector<std::vector<uint32_t>> groups;     // feature indices per group
  const CrossingIndex<LecFeature>* index = nullptr;  // over `groups`
  std::vector<std::vector<uint32_t>> adjacency;  // group join graph
  std::vector<bool> active;                      // per group
};

/// Mutable per-slot search state. No slot ever touches another slot's
/// scratch, and everything here is reset per seed, so a seed's DFS is a
/// pure function of (seed, frozen context, budget) regardless of which slot
/// runs it — the determinism guarantee.
struct PruneSlotScratch {
  // Per-depth frontier arena plus a per-depth chain-dedup map, so the
  // expansion loop stops re-allocating on every level; both are reset at
  // the start of each group expansion at that depth.
  std::vector<std::vector<JoinedFeature>> frontier_arena;
  std::vector<std::unordered_map<uint64_t, std::vector<size_t>>> dedup_arena;
  std::vector<bool> visited;
  std::vector<JoinedFeature> seed_frontier;  // always exactly one element
  // Scratch for building one candidate chain before it is either merged
  // into an existing chain, marked complete, or moved into the frontier.
  std::vector<uint32_t> scratch_contributors;
  // The index candidates of one (chain, group) step.
  std::vector<uint32_t> candidates;

  /// Per-slot survivor bitmap, one bit per base feature index. Marking is a
  /// pure union, so OR-folding the slot bitmaps after the ParallelFor
  /// barrier yields the same surviving set for every slot count and fold
  /// order.
  std::vector<uint64_t> survivors;

  size_t join_attempts = 0;
  size_t joined_budget = 0;     // remaining chains for the current seed
  bool seed_exhausted = false;  // current seed ran out of budget

  PruneSlotScratch(size_t num_groups, size_t num_features)
      : frontier_arena(num_groups),
        dedup_arena(num_groups),
        visited(num_groups, false),
        survivors((num_features + 63) / 64, 0) {}

  void MarkSurvivors(const std::vector<uint32_t>& members) {
    for (uint32_t f : members) {
      survivors[f >> 6] |= uint64_t{1} << (f & 63);
    }
  }
};

/// The recursive expansion of Alg. 2's ComLECFJoin for one seed: joins the
/// chains in `frontier` with every feature of every active group adjacent
/// to the visited set, marking contributors of all-ones chains in the
/// slot's survivor bitmap. Only the crossing index's candidates are probed
/// (see CrossingIndex::Candidates), and a group whose sign overlaps the
/// chain's is skipped outright, so a probe can fail only on condition 3
/// (conflicting endpoints).
///
/// `any_exhausted` is the run-global bail-out flag. It is *set* only when a
/// seed truly runs out of its own budget (a pure per-seed property, so the
/// flag's final value is deterministic); it is *polled* to abandon walks
/// early once the keep-everything fallback is inevitable — a truncated walk
/// can only lose survivor marks, which the fallback overwrites anyway.
void ComLecFJoin(const PruneContext& ctx, PruneSlotScratch& s,
                 const std::vector<JoinedFeature>& frontier, size_t depth,
                 std::atomic<bool>* any_exhausted) {
  if (s.seed_exhausted ||
      any_exhausted->load(std::memory_order_relaxed)) {
    return;
  }
  // Candidate groups: active, unvisited, adjacent to some visited group.
  std::vector<uint32_t> expansion_groups;
  for (uint32_t g = 0; g < ctx.groups.size(); ++g) {
    if (!ctx.active[g] || s.visited[g]) continue;
    bool adjacent = false;
    for (uint32_t nb : ctx.adjacency[g]) {
      if (s.visited[nb]) {
        adjacent = true;
        break;
      }
    }
    if (adjacent) expansion_groups.push_back(g);
  }

  for (uint32_t g : expansion_groups) {
    if (s.seed_exhausted ||
        any_exhausted->load(std::memory_order_relaxed)) {
      return;
    }
    std::unordered_map<uint64_t, std::vector<size_t>>& dedup =
        s.dedup_arena[depth];
    dedup.clear();
    std::vector<JoinedFeature>& next = s.frontier_arena[depth];
    next.clear();
    // Every feature of a group carries the group's sign (Def. 10).
    const Bitset& group_sign = (*ctx.features)[ctx.groups[g].front()].sign;
    for (const JoinedFeature& jf : frontier) {
      if (!jf.sign.DisjointWith(group_sign)) continue;
      ctx.index->Candidates(jf.crossing, g, &s.candidates);
      for (uint32_t f_idx : s.candidates) {
        const LecFeature& f = (*ctx.features)[f_idx];
        ++s.join_attempts;
        if (!FeaturesJoinable(jf.sign, jf.crossing, f.sign, f.crossing)) {
          continue;
        }
        Bitset sign = jf.sign | f.sign;
        std::vector<CrossingPairMap> crossing =
            MergeCrossing(jf.crossing, f.crossing);
        // The candidate chain's contributors, built in the reusable scratch
        // vector (the copy-assign reuses its capacity): jf's sorted set
        // plus f_idx, which cannot already be present — contributors only
        // hold the seed and members of visited groups, and g is unvisited.
        s.scratch_contributors = jf.contributors;
        s.scratch_contributors.insert(
            std::lower_bound(s.scratch_contributors.begin(),
                             s.scratch_contributors.end(), f_idx),
            f_idx);
        if (sign.All()) {
          s.MarkSurvivors(s.scratch_contributors);
          continue;  // a complete chain cannot be extended further
        }
        uint64_t key = JoinedKey(sign, crossing);
        bool merged = false;
        for (size_t slot : dedup[key]) {
          if (next[slot].sign == sign && next[slot].crossing == crossing) {
            MergeContributors(&next[slot].contributors,
                              s.scratch_contributors);
            merged = true;
            break;
          }
        }
        if (!merged) {
          if (s.joined_budget == 0) {
            s.seed_exhausted = true;
            any_exhausted->store(true, std::memory_order_relaxed);
            return;
          }
          --s.joined_budget;
          dedup[key].push_back(next.size());
          // Copy (not move) the contributors so the scratch keeps its
          // buffer; the materialized chain's own allocation is inherent.
          next.push_back(
              {std::move(sign), std::move(crossing), s.scratch_contributors});
        }
      }
    }
    if (!next.empty()) {
      s.visited[g] = true;
      // Deeper levels use arena slots > depth, so `next` stays untouched
      // while the recursion runs.
      ComLecFJoin(ctx, s, next, depth + 1, any_exhausted);
      s.visited[g] = false;
    }
  }
}

/// One seed's independent chain DFS: resets the slot scratch to the seed's
/// state (fresh per-seed budget, seed-local dedup) and expands.
void RunSeedPrune(const PruneContext& ctx, uint32_t vmin, uint32_t f_idx,
                  PruneSlotScratch& s, size_t budget,
                  std::atomic<bool>* any_exhausted) {
  const LecFeature& f = (*ctx.features)[f_idx];
  s.joined_budget = budget;
  s.seed_exhausted = false;
  s.visited.assign(ctx.groups.size(), false);
  s.visited[vmin] = true;
  s.seed_frontier.clear();
  s.seed_frontier.push_back({f.sign, f.crossing, {f_idx}});
  ComLecFJoin(ctx, s, s.seed_frontier, 0, any_exhausted);
}

/// Folds one slot's scratch into the run accumulators and resets it, so
/// the scratch can serve the next vmin group without double-counting.
void FoldSlot(PruneSlotScratch* s, std::vector<uint64_t>* survivor_words,
              PruneResult* result) {
  GSTORED_CHECK_EQ(s->survivors.size(), survivor_words->size());
  for (size_t w = 0; w < s->survivors.size(); ++w) {
    (*survivor_words)[w] |= s->survivors[w];
    s->survivors[w] = 0;
  }
  result->join_attempts += s->join_attempts;
  s->join_attempts = 0;
}

}  // namespace

PruneResult LecFeaturePruning(const std::vector<LecFeature>& features,
                              size_t num_query_vertices,
                              const PruneOptions& options) {
  PruneResult result;
  result.survives.assign(features.size(), false);
  if (features.empty()) return result;

  PruneContext ctx;
  ctx.features = &features;

  // Def. 10: group features by LECSign; one crossing index over the groups
  // serves both the group join graph and every DFS step's candidate
  // lookup.
  for (const LecFeature& f : features) {
    GSTORED_CHECK_EQ(f.sign.size(), num_query_vertices);
  }
  ctx.groups = GroupBySign(features);
  const size_t num_groups = ctx.groups.size();
  result.num_groups = num_groups;
  const CrossingIndex<LecFeature> index(features, ctx.groups);
  ctx.index = &index;

  JoinGraphStats graph_stats;
  ctx.adjacency = index.JoinGraph(&graph_stats);
  result.join_attempts += graph_stats.join_attempts;
  result.num_join_graph_edges = graph_stats.num_edges;

  ctx.active.assign(num_groups, true);
  DeactivateIsolatedGroups(ctx.adjacency, &ctx.active);

  // OR-accumulator of the per-slot survivor bitmaps and the run-global
  // bail-out flag (see ComLecFJoin's contract).
  std::vector<uint64_t> survivor_words((features.size() + 63) / 64, 0);
  std::atomic<bool> any_exhausted{false};

  // Per-slot scratch, built once per call: it grows to the largest slot
  // budget any vmin group asks for and is reused across groups (FoldSlot
  // resets what a group leaves behind).
  std::vector<PruneSlotScratch> scratch;

  // Main loop of Alg. 2: repeatedly expand chains from the smallest active
  // group, then retire it. Seed-major: each base feature of the vmin group
  // runs one independent DFS.
  while (!any_exhausted.load(std::memory_order_relaxed)) {
    uint32_t vmin = SelectMinActiveGroup(ctx.groups, ctx.active);
    if (vmin == kNoGroup) break;
    const std::vector<uint32_t>& seeds = ctx.groups[vmin];

    const size_t slots = JoinSlotBudget(seeds.size(), options.num_threads,
                                        options.min_seeds_per_slot);
    while (scratch.size() < slots) {
      scratch.emplace_back(num_groups, features.size());
    }
    // Fair share of the join-space cap: the group's seeds together stay
    // within ~max_joined_features, yet each seed's bail-out decision is a
    // pure function of that seed alone (a shared counter would make it
    // scheduling-dependent). Floored at one chain per seed so a group
    // larger than the cap degrades to minimal budgets instead of a
    // guaranteed bail-out; a zero cap still means "bail immediately".
    const size_t seed_budget =
        options.max_joined_features == 0
            ? 0
            : std::max<size_t>(1, options.max_joined_features / seeds.size());

    ParallelFor(options.pool, seeds.size(), slots, [&](size_t i, size_t slot) {
      if (any_exhausted.load(std::memory_order_relaxed)) return;
      RunSeedPrune(ctx, vmin, seeds[i], scratch[slot], seed_budget,
                   &any_exhausted);
    });
    // The ParallelFor return is the merge barrier: fold the slot bitmaps
    // (a pure union — order-independent) and counters. On non-bailed runs
    // no walk was truncated, so the counter sums equal the one-slot run's
    // totals: every counted probe belongs to exactly one seed DFS.
    for (size_t slot = 0; slot < slots; ++slot) {
      FoldSlot(&scratch[slot], &survivor_words, &result);
    }

    ctx.active[vmin] = false;
    DeactivateIsolatedGroups(ctx.adjacency, &ctx.active);
  }

  if (any_exhausted.load(std::memory_order_relaxed)) {
    // Safe fallback: pruning found too large a join space; keep everything.
    result.bailed_out = true;
    std::fill(result.survives.begin(), result.survives.end(), true);
  } else {
    for (size_t f = 0; f < features.size(); ++f) {
      if ((survivor_words[f >> 6] >> (f & 63)) & 1u) {
        result.survives[f] = true;
      }
    }
  }
  result.surviving_features = static_cast<size_t>(
      std::count(result.survives.begin(), result.survives.end(), true));
  return result;
}

}  // namespace gstored
