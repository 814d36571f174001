#ifndef GSTORED_CORE_JOIN_GRAPH_H_
#define GSTORED_CORE_JOIN_GRAPH_H_

// The one chain join behind LEC feature pruning (Alg. 2, items = LEC
// features) and LEC assembly (Alg. 3, items = LPMs), and the
// crossing-mapping index it runs on. Both algorithms group their items by
// LECSign (Def. 10/11), build the group join graph, DFS-join chains from
// the smallest active group outward and then retire that group (Thm. 4/5);
// ChainJoin below does all of that, and each algorithm passes a policy
// saying what a chain carries and what a join, a completion, an admission
// and a group fold do.
//
// Def. 9 condition 2 makes a shared crossing mapping necessary for two
// items to join, so one sorted (crossing mapping, group, item) index per
// run answers both questions the join asks:
//
//   * which LECSign groups are linked in the group join graph
//     (CrossingIndex::JoinGraph), and
//   * in each DFS step, which items of the next group can possibly join
//     the current chain (CrossingIndex::Candidates).
//
// Every pair the index lets through is still confirmed by the full
// FeaturesJoinable check. The index only drops pairs that share no mapping
// (condition 2) or whose groups' signs overlap (condition 4), so it removes
// probes that would have failed and never changes which joins succeed.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/group_schedule.h"
#include "core/lec_feature.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gstored {

/// Probe accounting of one group join graph construction.
struct JoinGraphStats {
  size_t join_attempts = 0;  ///< FeaturesJoinable probes evaluated
  size_t num_edges = 0;      ///< edges of the resulting group graph
};

/// Def. 10 / Def. 11: partitions item indices into groups of identical
/// LECSign, in first-appearance order. Each group lists its items in
/// ascending index order — the order the chain join scans it in.
///
/// `Item` must expose `.sign` (LecSign) — LocalPartialMatch and LecFeature
/// both qualify.
template <typename Item>
std::vector<std::vector<uint32_t>> GroupBySign(const std::vector<Item>& items) {
  std::vector<std::vector<uint32_t>> groups;
  std::unordered_map<LecSign, uint32_t> group_of;
  for (uint32_t i = 0; i < items.size(); ++i) {
    auto [it, fresh] = group_of.try_emplace(
        items[i].sign, static_cast<uint32_t>(groups.size()));
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

/// The chain joins' input contract, checked once per item: at most
/// kMaxEnumerableVertices query vertices, every sign within the `n`
/// vertices, and every crossing endpoint below kMaxEnumerableVertices (the
/// bound FeaturesJoinable's endpoint array relies on). Returns the sign of
/// a complete chain, FullSign(n); 0 for no items, whose `n` goes unchecked.
template <typename Item>
LecSign CheckedFullSign(const std::vector<Item>& items, size_t n) {
  if (items.empty()) return 0;
  GSTORED_CHECK_LE(n, kMaxEnumerableVertices);
  const LecSign full = FullSign(n);
  for (const Item& item : items) {
    GSTORED_CHECK_EQ(item.sign & ~full, 0u);
    for (const CrossingPairMap& c : item.crossing) {
      GSTORED_CHECK_LT(c.q_from, kMaxEnumerableVertices);
      GSTORED_CHECK_LT(c.q_to, kMaxEnumerableVertices);
    }
  }
  return full;
}

/// Inverted index from crossing mapping to the (group, item) entries that
/// carry it, built once per chain-join run over the run's LECSign groups.
/// The entries are one sorted vector ordered by (mapping, group, item), so
/// the items of one group sharing one mapping form a contiguous,
/// ascending run. Keys are the exact mappings, never hashes: a lookup
/// returns exactly the items that share a mapping.
///
/// `Item` must expose `.sign` (LecSign) and `.crossing` (sorted
/// CrossingPairMap vector). The index keeps a pointer to `items`, which
/// must outlive it.
template <typename Item>
class CrossingIndex {
 public:
  CrossingIndex(const std::vector<Item>& items,
                const std::vector<std::vector<uint32_t>>& groups)
      : items_(&items), num_groups_(groups.size()) {
    size_t total_crossings = 0;
    for (const auto& group : groups) {
      for (uint32_t i : group) total_crossings += items[i].crossing.size();
    }
    entries_.reserve(total_crossings);
    for (uint32_t g = 0; g < groups.size(); ++g) {
      for (uint32_t i : groups[g]) {
        for (const CrossingPairMap& c : items[i].crossing) {
          entries_.push_back(MakeEntry(c, g, i));
        }
      }
    }
    std::sort(entries_.begin(), entries_.end());
  }

  /// Builds the group join graph — an edge between two groups when some
  /// cross-group item pair is joinable (two same-sign items never are —
  /// Thm. 5). Only item pairs that meet in one mapping's bucket, from
  /// groups with disjoint signs, are probed with FeaturesJoinable: O(C log C
  /// + bucket pairs) work for C total crossing mappings instead of the
  /// all-pairs O(G² · items²) scan. Within a bucket each group's entries
  /// are contiguous, so the scan walks group *runs*: a group pair already
  /// settled joinable is skipped wholesale (a hot mapping shared by many
  /// items costs one probe, not a quadratic pass), and an item pair meeting
  /// in several buckets is probed once. Adjacency lists come back sorted,
  /// and the sorted scan makes the probe count deterministic.
  std::vector<std::vector<uint32_t>> JoinGraph(JoinGraphStats* stats) const {
    const std::vector<Item>& items = *items_;
    std::unordered_set<uint64_t> joinable_pairs;
    std::unordered_set<uint64_t> probed_item_pairs;
    for (size_t lo = 0; lo < entries_.size();) {
      size_t hi = lo + 1;
      while (hi < entries_.size() &&
             entries_[hi].SameMapping(entries_[lo])) {
        ++hi;
      }
      for (size_t a_lo = lo; a_lo < hi;) {
        size_t a_hi = GroupRunEnd(a_lo, hi);
        for (size_t b_lo = a_hi; b_lo < hi;) {
          size_t b_hi = GroupRunEnd(b_lo, hi);
          uint64_t group_pair =
              PackPair(entries_[a_lo].group, entries_[b_lo].group);
          // A group's items share its sign, so overlapping group signs
          // rule out every item pair of the two runs (condition 4).
          if (!joinable_pairs.contains(group_pair) &&
              (items[entries_[a_lo].item].sign &
               items[entries_[b_lo].item].sign) == 0) {
            bool confirmed = false;
            for (size_t i = a_lo; i < a_hi && !confirmed; ++i) {
              for (size_t j = b_lo; j < b_hi && !confirmed; ++j) {
                if (!probed_item_pairs
                         .insert(PackPair(entries_[i].item, entries_[j].item))
                         .second) {
                  continue;
                }
                const Item& a = items[entries_[i].item];
                const Item& b = items[entries_[j].item];
                ++stats->join_attempts;
                if (FeaturesJoinable(a.sign, a.crossing, b.sign,
                                     b.crossing)) {
                  joinable_pairs.insert(group_pair);
                  confirmed = true;
                }
              }
            }
          }
          b_lo = b_hi;
        }
        a_lo = a_hi;
      }
      lo = hi;
    }

    std::vector<std::vector<uint32_t>> adjacency(num_groups_);
    for (uint64_t pair : joinable_pairs) {
      uint32_t a = static_cast<uint32_t>(pair >> 32);
      uint32_t b = static_cast<uint32_t>(pair);
      adjacency[a].push_back(b);
      adjacency[b].push_back(a);
    }
    for (auto& list : adjacency) std::sort(list.begin(), list.end());
    stats->num_edges += joinable_pairs.size();
    return adjacency;
  }

  /// The candidate lookup of one DFS step: fills `out` with the items of
  /// `group` that share at least one mapping with `crossing` (a chain's
  /// sorted, merged crossing map), in ascending item order. That is the
  /// subsequence of the group's scan order that can pass Def. 9
  /// condition 2, so probing only these keeps the chain join's frontier
  /// and output order exactly as a full-group scan would produce them.
  void Candidates(const std::vector<CrossingPairMap>& crossing,
                  uint32_t group, std::vector<uint32_t>* out) const {
    out->clear();
    for (const CrossingPairMap& c : crossing) {
      const Entry key = MakeEntry(c, group, 0);
      for (auto it = std::lower_bound(entries_.begin(), entries_.end(), key);
           it != entries_.end() && it->SameMapping(key) && it->group == group;
           ++it) {
        out->push_back(it->item);
      }
    }
    if (crossing.size() > 1) {
      std::sort(out->begin(), out->end());
      out->erase(std::unique(out->begin(), out->end()), out->end());
    }
  }

 private:
  /// One (mapping, group, item) entry. The mapping is packed into two
  /// words — (q_from, q_to) and (d_from, d_to) — which order exactly like
  /// CrossingPairMap and keep the sort's comparisons cheap.
  struct Entry {
    uint64_t query_pair;
    uint64_t data_pair;
    uint32_t group;
    uint32_t item;

    bool SameMapping(const Entry& other) const {
      return query_pair == other.query_pair && data_pair == other.data_pair;
    }
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };

  static Entry MakeEntry(const CrossingPairMap& c, uint32_t group,
                         uint32_t item) {
    return {(static_cast<uint64_t>(c.q_from) << 32) | c.q_to,
            (static_cast<uint64_t>(c.d_from) << 32) | c.d_to, group, item};
  }

  static uint64_t PackPair(uint32_t a, uint32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  /// End of the run of entries sharing entries_[lo]'s group, within one
  /// mapping's bucket ending at `hi`.
  size_t GroupRunEnd(size_t lo, size_t hi) const {
    size_t end = lo + 1;
    while (end < hi && entries_[end].group == entries_[lo].group) ++end;
    return end;
  }

  const std::vector<Item>* items_;
  size_t num_groups_;
  std::vector<Entry> entries_;
};

/// The chain join of Alg. 2 and Alg. 3, seed-major: each item of the
/// current vmin group seeds one independent DFS over the active groups, the
/// seeds run through one ParallelFor, and the group is folded and retired
/// before the next vmin is chosen. The kernel owns the run setup (input
/// check, grouping, index, group join graph, isolated-group fixpoint), the
/// vmin loop and the DFS step. `Policy` supplies the rest, called directly
/// (no virtual or std::function call per probe):
///
///   * types `Chain` (`.sign`, `.crossing` plus a payload), `Slot` (per-slot
///     state, from `NewSlot(num_groups)`) and `Emit` (a completion's output);
///   * `StartSeed(slot, item, group_size)` resets the slot's per-seed state
///     and returns the seed's chain;
///   * `Stopped()` is polled before each seed and each group expansion;
///   * `Join(slot, chain, item, &joined)` sets `joined`'s payload after a
///     successful probe, or returns false to drop it;
///   * `Complete(slot, joined, out)` takes a chain whose sign is
///     FullSign(n), which is never extended; `Admit(slot, depth, joined,
///     &next)` takes (or merges) any other into the depth's next frontier,
///     or returns false to end the walk;
///   * `FoldGroup(slots, emitted)` runs on the caller after each group's
///     barrier, with the slots the group used and its emissions in seed
///     order.
///
/// Determinism: `active` changes only between vmin groups, on the caller;
/// everything a walk mutates lives in its slot and is reset per seed, so a
/// seed's walk is a pure function of (seed, frozen context), whichever slot
/// runs it. Every probe belongs to exactly one seed, so the probe count is
/// the same for every slot count on runs the policy does not stop.
template <typename Item, typename Policy>
class ChainJoin {
 public:
  using Chain = typename Policy::Chain;
  using Slot = typename Policy::Slot;
  using Emit = typename Policy::Emit;

  /// `items` and `policy` must outlive the join.
  ChainJoin(const std::vector<Item>& items, size_t num_query_vertices,
            Policy& policy)
      : items_(items),
        policy_(policy),
        full_sign_(CheckedFullSign(items, num_query_vertices)),
        groups_(GroupBySign(items)),
        index_(items, groups_) {
    adjacency_ = index_.JoinGraph(&graph_);
    active_.assign(groups_.size(), true);
    DeactivateIsolatedGroups(adjacency_, &active_);
  }

  /// Runs the vmin loop to the end, or until the policy stops it. Sets
  /// `stats->num_groups` and adds the group graph's edges and every
  /// FeaturesJoinable probe (the graph's bucket probes plus one per DFS
  /// candidate) to `num_join_graph_edges` and `join_attempts`;
  /// PruneResult and AssemblyStats both have those fields.
  template <typename Stats>
  void Run(const ChainJoinOptions& options, Stats* stats) {
    stats->num_groups = groups_.size();
    stats->num_join_graph_edges += graph_.num_edges;
    stats->join_attempts += graph_.join_attempts;
    // Slot scratch, built once per run: it grows to the largest slot budget
    // any vmin group asks for and is reused across groups.
    std::vector<Dfs> dfs;
    std::vector<Slot> slots;
    while (!policy_.Stopped()) {
      const uint32_t vmin = SelectMinActiveGroup(groups_, active_);
      if (vmin == kNoGroup) break;
      const std::vector<uint32_t>& seeds = groups_[vmin];
      const size_t budget = JoinSlotBudget(seeds.size(), options.num_threads,
                                           options.min_seeds_per_slot);
      while (dfs.size() < budget) {
        dfs.emplace_back(groups_.size());
        slots.push_back(policy_.NewSlot(groups_.size()));
      }
      std::vector<Emit> emitted = ParallelForConcat<Emit>(
          options.pool, seeds.size(), budget,
          [&](size_t i, size_t slot, std::vector<Emit>* out) {
            if (policy_.Stopped()) return;
            Dfs& d = dfs[slot];
            d.visited.assign(groups_.size(), false);
            d.visited[vmin] = true;
            d.seed_frontier.clear();
            d.seed_frontier.push_back(
                policy_.StartSeed(slots[slot], seeds[i], seeds.size()));
            Expand(d, slots[slot], d.seed_frontier, 0, out);
          });
      // The ParallelFor return is the merge barrier.
      for (Dfs& d : dfs) {
        stats->join_attempts += d.join_attempts;
        d.join_attempts = 0;
      }
      policy_.FoldGroup(std::span<Slot>(slots.data(), budget),
                        std::move(emitted));
      active_[vmin] = false;
      DeactivateIsolatedGroups(adjacency_, &active_);
    }
  }

 private:
  /// The kernel's per-slot search state, beside the policy's Slot.
  struct Dfs {
    // One reusable next-frontier vector per DFS depth, sized to the deepest
    // possible recursion (one level per group) up front: deeper levels use
    // slots > depth, so they never touch a frontier a shallower level is
    // iterating.
    std::vector<std::vector<Chain>> frontier_arena;
    std::vector<bool> visited;
    std::vector<Chain> seed_frontier;  // always exactly one element
    std::vector<uint32_t> candidates;  // index candidates of one step
    Chain joined;                      // the chain one probe builds
    size_t join_attempts = 0;

    explicit Dfs(size_t num_groups)
        : frontier_arena(num_groups), visited(num_groups, false) {}
  };

  /// One DFS step, the recursive join of Alg. 2 and Alg. 3: joins the
  /// chains in `frontier` with the items of every active, unvisited group
  /// adjacent to the visited set, then recurses on each group's fresh
  /// chains. A group whose sign overlaps a chain's is skipped for it
  /// outright, and only the crossing index's candidates are probed, in
  /// ascending item order: exactly the subsequence of a full-group scan
  /// that can join, so the frontiers, admissions and emissions are those
  /// of that scan.
  void Expand(Dfs& d, Slot& slot, const std::vector<Chain>& frontier,
              size_t depth, std::vector<Emit>* out) {
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      if (!active_[g] || d.visited[g] ||
          std::none_of(adjacency_[g].begin(), adjacency_[g].end(),
                       [&](uint32_t nb) { return d.visited[nb]; })) {
        continue;
      }
      if (policy_.Stopped()) return;
      std::vector<Chain>& next = d.frontier_arena[depth];
      next.clear();
      // Every item of a group carries the group's sign (Def. 10/11).
      const LecSign group_sign = items_[groups_[g].front()].sign;
      for (const Chain& chain : frontier) {
        if ((chain.sign & group_sign) != 0) continue;
        index_.Candidates(chain.crossing, g, &d.candidates);
        for (uint32_t i : d.candidates) {
          const Item& item = items_[i];
          ++d.join_attempts;
          if (!FeaturesJoinable(chain.sign, chain.crossing, item.sign,
                                item.crossing) ||
              !policy_.Join(slot, chain, i, &d.joined)) {
            continue;
          }
          d.joined.sign = chain.sign | item.sign;
          d.joined.crossing = MergeCrossing(chain.crossing, item.crossing);
          if (d.joined.sign == full_sign_) {
            policy_.Complete(slot, d.joined, out);
          } else if (!policy_.Admit(slot, depth, d.joined, &next)) {
            return;
          }
        }
      }
      if (!next.empty()) {
        d.visited[g] = true;
        Expand(d, slot, next, depth + 1, out);
        d.visited[g] = false;
      }
    }
  }

  const std::vector<Item>& items_;
  Policy& policy_;
  const LecSign full_sign_;                          // FullSign(n)
  const std::vector<std::vector<uint32_t>> groups_;  // item indices
  const CrossingIndex<Item> index_;                  // over `groups_`
  std::vector<std::vector<uint32_t>> adjacency_;     // group join graph
  JoinGraphStats graph_;
  std::vector<bool> active_;                         // per group
};

}  // namespace gstored

#endif  // GSTORED_CORE_JOIN_GRAPH_H_
