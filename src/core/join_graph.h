#ifndef GSTORED_CORE_JOIN_GRAPH_H_
#define GSTORED_CORE_JOIN_GRAPH_H_

// The crossing-mapping index shared by the two LEC chain joins — feature
// pruning (Alg. 2, items = LEC features) and assembly (Alg. 3, items =
// LPMs). Def. 9 condition 2 makes a shared crossing mapping necessary for
// two items to join, so one sorted (crossing mapping, group, item) index
// per run answers both questions the joins ask:
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
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/lec_feature.h"
#include "util/bitset.h"

namespace gstored {

/// Probe accounting of one group join graph construction.
struct JoinGraphStats {
  size_t join_attempts = 0;  ///< FeaturesJoinable probes evaluated
  size_t num_edges = 0;      ///< edges of the resulting group graph
};

/// Def. 10 / Def. 11: partitions item indices into groups of identical
/// LECSign, in first-appearance order. Each group lists its items in
/// ascending index order — the order both chain joins scan it in.
///
/// `Item` must expose `.sign` (Bitset) — LocalPartialMatch and LecFeature
/// both qualify.
template <typename Item>
std::vector<std::vector<uint32_t>> GroupBySign(const std::vector<Item>& items) {
  std::vector<std::vector<uint32_t>> groups;
  std::unordered_map<uint64_t, std::vector<uint32_t>> sign_buckets;
  std::vector<Bitset> group_signs;
  for (uint32_t i = 0; i < items.size(); ++i) {
    uint64_t h = items[i].sign.Hash();
    bool placed = false;
    for (uint32_t g : sign_buckets[h]) {
      if (group_signs[g] == items[i].sign) {
        groups[g].push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      sign_buckets[h].push_back(static_cast<uint32_t>(groups.size()));
      group_signs.push_back(items[i].sign);
      groups.push_back({i});
    }
  }
  return groups;
}

/// Inverted index from crossing mapping to the (group, item) entries that
/// carry it, built once per chain-join run over the run's LECSign groups.
/// The entries are one sorted vector ordered by (mapping, group, item), so
/// the items of one group sharing one mapping form a contiguous,
/// ascending run. Keys are the exact mappings, never hashes: a lookup
/// returns exactly the items that share a mapping.
///
/// `Item` must expose `.sign` (Bitset) and `.crossing` (sorted
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
              items[entries_[a_lo].item].sign.DisjointWith(
                  items[entries_[b_lo].item].sign)) {
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

}  // namespace gstored

#endif  // GSTORED_CORE_JOIN_GRAPH_H_
