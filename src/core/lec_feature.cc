#include "core/lec_feature.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

uint64_t LecFeature::Hash() const {
  uint64_t h = HashCombine(sign, static_cast<uint64_t>(fragment));
  for (const CrossingPairMap& c : crossing) {
    h = HashCombine(h, (static_cast<uint64_t>(c.q_from) << 32) | c.q_to);
    h = HashCombine(h, (static_cast<uint64_t>(c.d_from) << 32) | c.d_to);
  }
  return h;
}

std::string LecFeature::ToString(const TermDict& dict, size_t n) const {
  std::string out = "{F" + std::to_string(fragment) + ", {";
  for (size_t i = 0; i < crossing.size(); ++i) {
    if (i > 0) out += ", ";
    const CrossingPairMap& c = crossing[i];
    out += dict.lexical(c.d_from) + "->" + dict.lexical(c.d_to) + " => q(" +
           std::to_string(c.q_from) + "," + std::to_string(c.q_to) + ")";
  }
  out += "}, " + SignToString(sign, n) + "}";
  return out;
}

LecFeatureSet ComputeLecFeatures(const std::vector<LocalPartialMatch>& lpms) {
  LecFeatureSet set;
  set.feature_of_lpm.reserve(lpms.size());
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (const LocalPartialMatch& pm : lpms) {
    LecFeature feature;
    feature.fragment = pm.fragment;
    feature.crossing = pm.crossing;
    feature.sign = pm.sign;
    uint64_t h = feature.Hash();
    size_t index = static_cast<size_t>(-1);
    for (size_t candidate : buckets[h]) {
      if (set.features[candidate] == feature) {
        index = candidate;
        break;
      }
    }
    if (index == static_cast<size_t>(-1)) {
      index = set.features.size();
      buckets[h].push_back(index);
      set.features.push_back(std::move(feature));
    }
    set.feature_of_lpm.push_back(index);
  }
  return set;
}

bool FeaturesJoinable(LecSign sign_a,
                      const std::vector<CrossingPairMap>& cross_a,
                      LecSign sign_b,
                      const std::vector<CrossingPairMap>& cross_b) {
  // Condition 4: disjoint internal-vertex signatures.
  if ((sign_a & sign_b) != 0) return false;

  // Condition 2: at least one identical crossing mapping shared. Both maps
  // are sorted by (q_from, q_to, d_from, d_to).
  bool shared = false;
  {
    size_t i = 0;
    size_t j = 0;
    while (i < cross_a.size() && j < cross_b.size() && !shared) {
      if (cross_a[i] < cross_b[j]) {
        ++i;
      } else if (cross_b[j] < cross_a[i]) {
        ++j;
      } else {
        shared = true;
      }
    }
  }
  if (!shared) return false;

  // Condition 3, strengthened to endpoint level: every query vertex that is
  // an endpoint of crossing edges in both features must map to the same data
  // vertex. The paper states the condition per edge, which misses conflicts
  // on a third query vertex that is extended in both partial matches (only
  // possible for cyclic queries); Def. 6's f^-1-based formulation and the
  // Thm. 2/3 proofs rely on endpoint consistency, which is what we check.
  // Within one feature the endpoint map is a function, so a's endpoints
  // fill one slot per query vertex and b's are checked against them.
  std::array<TermId, kMaxEnumerableVertices> ends_a{};
  uint32_t assigned_a = 0;
  for (const CrossingPairMap& c : cross_a) {
    ends_a[c.q_from] = c.d_from;
    ends_a[c.q_to] = c.d_to;
    assigned_a |= (uint32_t{1} << c.q_from) | (uint32_t{1} << c.q_to);
  }
  const auto agrees = [&](QVertexId q, TermId d) {
    return ((assigned_a >> q) & 1u) == 0 || ends_a[q] == d;
  };
  for (const CrossingPairMap& c : cross_b) {
    if (!agrees(c.q_from, c.d_from) || !agrees(c.q_to, c.d_to)) return false;
  }
  return true;
}

bool FeaturesJoinable(const LecFeature& a, const LecFeature& b) {
  return FeaturesJoinable(a.sign, a.crossing, b.sign, b.crossing);
}

std::vector<CrossingPairMap> MergeCrossing(
    const std::vector<CrossingPairMap>& a,
    const std::vector<CrossingPairMap>& b) {
  std::vector<CrossingPairMap> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

}  // namespace gstored
