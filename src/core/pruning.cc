#include "core/pruning.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <unordered_map>
#include <variant>

#include "core/join_graph.h"
#include "util/hash.h"

namespace gstored {
namespace {

/// An in-flight chain of joined LEC features (the LF_k of Alg. 2).
struct JoinedFeature {
  LecSign sign = 0;
  std::vector<CrossingPairMap> crossing;
  std::vector<uint32_t> contributors;  // sorted base feature indices
};

uint64_t JoinedKey(LecSign sign,
                   const std::vector<CrossingPairMap>& crossing) {
  uint64_t h = MixU64(sign);
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

/// Alg. 2's policy for the chain join (ChainJoin in core/join_graph.h): a
/// chain carries its contributing base features, a complete chain marks
/// them in the slot's survivor bitmap, and the group fold ORs the bitmaps.
struct PrunePolicy {
  using Chain = JoinedFeature;
  using Emit = std::monostate;  // completions mark the slot bitmap instead

  // (sign, crossing) key -> indices into one depth's next frontier.
  using DedupMap = std::unordered_map<uint64_t, std::vector<size_t>>;

  struct Slot {
    std::vector<DedupMap> dedup;  // per depth
    /// One bit per base feature. Marking is a pure union, so OR-folding the
    /// slot bitmaps after the barrier yields the same surviving set for
    /// every slot count and fold order.
    std::vector<uint64_t> survivors;
    size_t budget = 0;  // chains the current seed may still materialize
  };

  const std::vector<LecFeature>& features;
  const size_t max_joined_features;
  std::vector<uint64_t> survivor_words =
      std::vector<uint64_t>((features.size() + 63) / 64, 0);
  /// The run-global bail-out flag. It is *set* only when a seed truly runs
  /// out of its own budget (a pure per-seed property, so its final value is
  /// deterministic); it is *polled* to abandon walks early once the
  /// keep-everything fallback is inevitable — a truncated walk can only
  /// lose survivor marks, which the fallback overwrites anyway.
  std::atomic<bool> exhausted{false};

  Slot NewSlot(size_t num_groups) const {
    return {std::vector<DedupMap>(num_groups),
            std::vector<uint64_t>(survivor_words.size(), 0)};
  }

  Chain StartSeed(Slot& s, uint32_t f, size_t group_size) const {
    // Fair share of the join-space cap: the group's seeds together stay
    // within ~max_joined_features, yet each seed's bail-out decision is a
    // pure function of that seed alone (a shared counter would make it
    // scheduling-dependent). Floored at one chain per seed so a group
    // larger than the cap degrades to minimal budgets instead of a
    // guaranteed bail-out; a zero cap still means "bail immediately".
    s.budget = max_joined_features == 0
                   ? 0
                   : std::max<size_t>(1, max_joined_features / group_size);
    return {features[f].sign, features[f].crossing, {f}};
  }

  bool Stopped() const { return exhausted.load(std::memory_order_relaxed); }

  bool Join(Slot&, const Chain& chain, uint32_t f, Chain* joined) const {
    // `f` cannot already be a contributor: contributors hold only the seed
    // and members of visited groups, and f's group is unvisited. The
    // copy-assign reuses the scratch chain's buffer.
    std::vector<uint32_t>& into = joined->contributors;
    into = chain.contributors;
    into.insert(std::lower_bound(into.begin(), into.end(), f), f);
    return true;
  }

  void Complete(Slot& s, Chain& joined, std::vector<Emit>*) const {
    for (uint32_t f : joined.contributors) {
      s.survivors[f >> 6] |= uint64_t{1} << (f & 63);
    }
  }

  /// Merges a chain equal in (sign, crossing) to one already in `next` —
  /// from then on both make the same joinability decisions — and charges
  /// each fresh chain to the seed's budget.
  bool Admit(Slot& s, size_t depth, Chain& joined, std::vector<Chain>* next) {
    DedupMap& dedup = s.dedup[depth];
    // A step's first admission finds `next` empty while the map still
    // holds the previous step's keys at this depth.
    if (next->empty()) dedup.clear();
    std::vector<size_t>& bucket =
        dedup[JoinedKey(joined.sign, joined.crossing)];
    for (size_t i : bucket) {
      Chain& chain = (*next)[i];
      if (chain.sign == joined.sign && chain.crossing == joined.crossing) {
        MergeContributors(&chain.contributors, joined.contributors);
        return true;
      }
    }
    if (s.budget == 0) {
      exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    --s.budget;
    bucket.push_back(next->size());
    // Copy (not move) the contributors so the scratch keeps its buffer;
    // the materialized chain's own allocation is inherent.
    next->push_back(
        {joined.sign, std::move(joined.crossing), joined.contributors});
    return true;
  }

  void FoldGroup(std::span<Slot> slots, std::vector<Emit>&&) {
    for (Slot& s : slots) {
      for (size_t w = 0; w < s.survivors.size(); ++w) {
        survivor_words[w] |= s.survivors[w];
        s.survivors[w] = 0;
      }
    }
  }
};

}  // namespace

PruneResult LecFeaturePruning(const std::vector<LecFeature>& features,
                              size_t num_query_vertices,
                              const PruneOptions& options) {
  PrunePolicy policy{features, options.max_joined_features};
  PruneResult result;
  ChainJoin(features, num_query_vertices, policy).Run(options, &result);
  // A bail-out means too large a join space: keep every feature, which is
  // always safe.
  result.bailed_out = policy.Stopped();
  result.survives.assign(features.size(), true);
  if (!result.bailed_out) {
    for (size_t f = 0; f < features.size(); ++f) {
      result.survives[f] = (policy.survivor_words[f >> 6] >> (f & 63)) & 1u;
    }
  }
  result.surviving_features = static_cast<size_t>(
      std::count(result.survives.begin(), result.survives.end(), true));
  return result;
}

}  // namespace gstored
