#include "core/assembly.h"

#include <span>
#include <unordered_map>
#include <utility>

#include "core/join_graph.h"
#include "core/seen_set.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gstored {
namespace {

/// An in-flight joined partial result (the PM_k of Alg. 3).
struct PartialJoin {
  LecSign sign = 0;
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

/// Alg. 3's policy for the chain join (ChainJoin in core/join_graph.h): a
/// chain carries its merged binding, a join also merges the bindings, a
/// complete chain emits its binding, and the group fold feeds the seeds'
/// emissions to the dedup sink in seed order.
struct AssemblyPolicy {
  using Chain = PartialJoin;
  using Emit = Binding;

  struct Slot {
    // Per-seed dedup of materialized partials. Seed-local suffices:
    // partials grown from different seeds always differ in binding (two
    // same-sign LPMs bind the same query-vertex set, so equal merged
    // bindings would force equal seeds), hence cross-seed entries can never
    // hit. Cleared per seed rather than shared so pathological inputs
    // (duplicate LPMs) cannot make the output depend on the dynamic
    // seed-to-slot assignment.
    SeenSet seen;
    size_t intermediate_results = 0;
    size_t binding_conflicts = 0;
  };

  const std::vector<LocalPartialMatch>& lpms;
  AssemblyStats* stats;
  ResultSink sink;

  Slot NewSlot(size_t) const { return {}; }

  Chain StartSeed(Slot& s, uint32_t pm, size_t) const {
    s.seen.Clear();
    return {lpms[pm].sign, lpms[pm].crossing, lpms[pm].binding};
  }

  bool Stopped() const { return false; }

  bool Join(Slot& s, const Chain& partial, uint32_t pm, Chain* joined) const {
    if (MergeBindings(partial.binding, lpms[pm].binding, &joined->binding)) {
      return true;
    }
    ++s.binding_conflicts;  // Thm. 3 predicts none for well-formed LPMs
    return false;
  }

  void Complete(Slot&, Chain& joined, std::vector<Binding>* out) const {
    out->push_back(std::move(joined.binding));
  }

  bool Admit(Slot& s, size_t, Chain& joined, std::vector<Chain>* next) const {
    if (!s.seen.CheckAndInsert(joined.sign, joined.binding)) {
      ++s.intermediate_results;
      next->push_back(std::move(joined));
    }
    return true;
  }

  void FoldGroup(std::span<Slot> slots, std::vector<Binding>&& emitted) {
    for (Binding& b : emitted) sink.Add(std::move(b));
    for (Slot& s : slots) {
      stats->intermediate_results += s.intermediate_results;
      stats->binding_conflicts += s.binding_conflicts;
      s.intermediate_results = 0;
      s.binding_conflicts = 0;
    }
  }
};

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
  AssemblyPolicy policy{lpms, stats, {}};
  ChainJoin(lpms, num_query_vertices, policy).Run(options, stats);
  return policy.sink.Take();
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
  const LecSign full_sign = CheckedFullSign(lpms, num_query_vertices);

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
        if (joined.sign == full_sign) {
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
