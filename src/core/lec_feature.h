#ifndef GSTORED_CORE_LEC_FEATURE_H_
#define GSTORED_CORE_LEC_FEATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/local_partial_match.h"

namespace gstored {

/// The LEC feature of Def. 8: the shared structure of one local partial
/// match equivalence class — fragment identifier, the crossing-edge mapping
/// g (pair-level), and the LECSign bitstring over query vertices.
///
/// Two LPMs from the same fragment with identical crossing mappings are
/// equivalent (Def. 6 / Thm. 1) and share one feature.
struct LecFeature {
  FragmentId fragment = -1;
  std::vector<CrossingPairMap> crossing;  // sorted, unique
  LecSign sign = 0;

  friend bool operator==(const LecFeature& a, const LecFeature& b) {
    return a.fragment == b.fragment && a.sign == b.sign &&
           a.crossing == b.crossing;
  }

  uint64_t Hash() const;

  /// Example 6's notation, the sign over the query's `n` vertices.
  std::string ToString(const TermDict& dict, size_t n) const;
};

/// The deduplicated features of a set of LPMs plus the LPM -> feature map.
/// This is the output of Algorithm 1 run over all sites' partial matches.
struct LecFeatureSet {
  std::vector<LecFeature> features;
  /// feature_of_lpm[i] indexes `features` for the i-th input LPM.
  std::vector<size_t> feature_of_lpm;
};

/// Algorithm 1: a single linear scan over the LPMs, folding each into its
/// (deduplicated) LEC feature.
LecFeatureSet ComputeLecFeatures(const std::vector<LocalPartialMatch>& lpms);

/// Def. 9 conditions 2-4 on two (possibly already joined) features:
///   2. at least one identical crossing mapping is shared;
///   3. the crossing maps agree on every shared *endpoint* (a strengthening
///      of the paper's per-edge statement: for cyclic queries two features
///      can avoid any same-query-pair clash yet still bind a query vertex —
///      extended on both sides — to different data vertices; the endpoint
///      check is what the Thm. 2/3 proofs actually rely on);
///   4. the LECSigns are disjoint.
/// Condition 1 (different fragments) is implied for base features: two LPMs
/// of one fragment sharing a crossing mapping would both map an internal
/// endpoint of that edge, violating condition 4. Dropping it keeps the
/// predicate applicable to multi-way joined features (Thm. 4 chains).
///
/// Every query vertex id in the crossing maps must be below
/// kMaxEnumerableVertices: condition 3 indexes a fixed per-vertex array, so
/// the probe makes no allocation. The chain joins check that once per item,
/// and the wire decoders take no query wider than that bound.
bool FeaturesJoinable(LecSign sign_a,
                      const std::vector<CrossingPairMap>& cross_a,
                      LecSign sign_b,
                      const std::vector<CrossingPairMap>& cross_b);

/// Convenience overload for two base features.
bool FeaturesJoinable(const LecFeature& a, const LecFeature& b);

/// Merges two sorted crossing maps (the ⋈ of Alg. 2 line 6 on the g
/// component). Inputs must be joinable.
std::vector<CrossingPairMap> MergeCrossing(
    const std::vector<CrossingPairMap>& a,
    const std::vector<CrossingPairMap>& b);

}  // namespace gstored

#endif  // GSTORED_CORE_LEC_FEATURE_H_
