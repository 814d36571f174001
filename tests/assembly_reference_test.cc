// Oracle-backed assembly harness: a brute-force reference assembly that
// joins chains of LPMs all-pairs — no LECSign grouping, no group join
// graph, no vmin scheduling — with the Def. 9 joinability conditions
// checked directly by first principles (plain loops over the crossing
// maps, not FeaturesJoinable). LecAssembly must produce exactly the
// oracle's crossing-match set on the 10 shared reference scenarios and on
// fresh randomized multi-site scenarios, serial and parallel alike; the
// parallel-pruned feature set must equal the serial-pruned set (and the
// pruned assembly must still reproduce the oracle) on every scenario; and
// every assembled binding must be a genuine match of the full graph. A
// second oracle, also written from Def. 9 and Thm. 4 without
// FeaturesJoinable, pins LecFeaturePruning's exact surviving set, and the
// same Def. 9 conditions pin FeaturesJoinable's verdict on every LPM pair
// and feature pair of each scenario and of LUBM-3's LQ1 and LQ7.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "partition/partitioners.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::testing::RandomAssignment;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;

/// One in-flight oracle chain: a set of LPM indices with pairwise-disjoint
/// signs, plus its aggregate state. The aggregate (sign union, crossing
/// union, merged binding) is order-independent, so chains are deduplicated
/// by member set.
struct OracleChain {
  std::vector<uint32_t> members;  // sorted LPM indices
  LecSign sign = 0;
  std::vector<CrossingPairMap> crossing;
  Binding binding;
};

/// Def. 9 condition 2, verbatim: the two crossing-map sets share at least
/// one identical mapping.
bool SharesIdenticalMapping(const std::vector<CrossingPairMap>& a,
                            const std::vector<CrossingPairMap>& b) {
  for (const CrossingPairMap& ca : a) {
    for (const CrossingPairMap& cb : b) {
      if (ca == cb) return true;
    }
  }
  return false;
}

/// Def. 9 condition 3 at the endpoint level (the form the Thm. 2/3 proofs
/// rely on): collect each side's query-vertex -> data-vertex endpoint
/// assignments and require agreement wherever both sides assign.
bool EndpointsAgree(const std::vector<CrossingPairMap>& a,
                    const std::vector<CrossingPairMap>& b) {
  std::map<QVertexId, TermId> endpoints_a;
  for (const CrossingPairMap& c : a) {
    endpoints_a[c.q_from] = c.d_from;
    endpoints_a[c.q_to] = c.d_to;
  }
  for (const CrossingPairMap& c : b) {
    auto from = endpoints_a.find(c.q_from);
    if (from != endpoints_a.end() && from->second != c.d_from) return false;
    auto to = endpoints_a.find(c.q_to);
    if (to != endpoints_a.end() && to->second != c.d_to) return false;
  }
  return true;
}

/// Def. 9 on two signs and crossing maps (a chain aggregate and one more
/// LPM, or two items): disjoint signs (cond. 4), a shared identical
/// crossing mapping (cond. 2) and endpoint agreement (cond. 3). Condition 1
/// (different fragments) is implied — an LPM whose fragment already
/// contributed would overlap on signs or endpoints.
bool OracleJoinable(LecSign sign_a, const std::vector<CrossingPairMap>& cross_a,
                    LecSign sign_b,
                    const std::vector<CrossingPairMap>& cross_b) {
  return (sign_a & sign_b) == 0 && SharesIdenticalMapping(cross_a, cross_b) &&
         EndpointsAgree(cross_a, cross_b);
}

/// FeaturesJoinable's verdict against OracleJoinable on every ordered pair
/// of `items`. Returns how many pairs only the endpoint check rejects
/// (disjoint signs and a shared mapping, but a vertex bound apart), so a
/// sweep can assert it reached the case condition 3 exists for.
template <typename Item>
size_t CheckProbeAgainstOracle(const std::vector<Item>& items,
                               const std::string& label) {
  size_t endpoint_rejects = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < items.size(); ++j) {
      const Item& a = items[i];
      const Item& b = items[j];
      const bool oracle =
          OracleJoinable(a.sign, a.crossing, b.sign, b.crossing);
      if (!oracle && (a.sign & b.sign) == 0 &&
          SharesIdenticalMapping(a.crossing, b.crossing)) {
        ++endpoint_rejects;
      }
      if (FeaturesJoinable(a.sign, a.crossing, b.sign, b.crossing) != oracle &&
          mismatches++ == 0) {
        ADD_FAILURE() << label << ": items " << i << " and " << j
                      << " probe " << !oracle << ", Def. 9 says " << oracle;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label << " (" << items.size() << " items)";
  return endpoint_rejects;
}

/// The brute-force assembly: breadth-first closure of chain extension over
/// every (chain, LPM) pair, recording the binding whenever the union sign
/// is all ones. Thm. 4 says the complete crossing matches are exactly the
/// all-ones chains, independent of join order, so chains are explored (and
/// deduplicated) as member sets.
std::vector<Binding> OracleAssembly(const std::vector<LocalPartialMatch>& lpms,
                                    size_t num_query_vertices,
                                    size_t* binding_conflicts = nullptr) {
  std::vector<Binding> complete;
  std::set<std::vector<uint32_t>> reached;
  std::vector<OracleChain> frontier;
  for (uint32_t i = 0; i < lpms.size(); ++i) {
    OracleChain chain{{i}, lpms[i].sign, lpms[i].crossing, lpms[i].binding};
    if (reached.insert(chain.members).second) {
      frontier.push_back(std::move(chain));
    }
  }

  while (!frontier.empty()) {
    std::vector<OracleChain> next;
    for (const OracleChain& chain : frontier) {
      for (uint32_t i = 0; i < lpms.size(); ++i) {
        const LocalPartialMatch& pm = lpms[i];
        if (!OracleJoinable(chain.sign, chain.crossing, pm.sign, pm.crossing)) {
          continue;
        }

        OracleChain joined;
        joined.members = chain.members;
        joined.members.insert(
            std::upper_bound(joined.members.begin(), joined.members.end(), i),
            i);
        if (reached.contains(joined.members)) continue;

        // Merge the bindings entry by entry; Thm. 3 promises no conflict
        // for LPM populations the enumerator produced.
        joined.binding = chain.binding;
        bool conflict = false;
        for (size_t v = 0; v < joined.binding.size(); ++v) {
          if (pm.binding[v] == kNullTerm) continue;
          if (joined.binding[v] == kNullTerm) {
            joined.binding[v] = pm.binding[v];
          } else if (joined.binding[v] != pm.binding[v]) {
            conflict = true;
            break;
          }
        }
        if (conflict) {
          if (binding_conflicts != nullptr) ++*binding_conflicts;
          continue;
        }
        reached.insert(joined.members);

        joined.sign = chain.sign | pm.sign;
        joined.crossing = chain.crossing;
        joined.crossing.insert(joined.crossing.end(), pm.crossing.begin(),
                               pm.crossing.end());
        std::sort(joined.crossing.begin(), joined.crossing.end());
        joined.crossing.erase(
            std::unique(joined.crossing.begin(), joined.crossing.end()),
            joined.crossing.end());

        if (joined.sign == FullSign(num_query_vertices)) {
          complete.push_back(joined.binding);
        } else {
          next.push_back(std::move(joined));
        }
      }
    }
    frontier = std::move(next);
  }

  DedupBindings(&complete);
  return complete;
}

/// Survivor oracle for LEC feature pruning, from Def. 9 and Thm. 4 alone:
/// feature f survives iff some set S of features containing f
///   * has pairwise-disjoint signs that together cover every query vertex,
///   * has crossing endpoint maps that agree pairwise, and
///   * is connected through shared identical crossing mappings.
/// Every connected set can be grown one member at a time, each new member
/// sharing a mapping with one already in, so the search grows sets that
/// way, breadth-first and deduplicated by member set. A complete set
/// cannot grow further (any new sign would overlap the cover).
std::vector<bool> OracleSurvivors(const std::vector<LecFeature>& features,
                                  size_t num_query_vertices) {
  std::vector<bool> survives(features.size(), false);
  std::set<std::vector<uint32_t>> reached;
  std::vector<std::vector<uint32_t>> frontier;
  for (uint32_t i = 0; i < features.size(); ++i) {
    reached.insert({i});
    frontier.push_back({i});
  }
  while (!frontier.empty()) {
    std::vector<std::vector<uint32_t>> next;
    for (const std::vector<uint32_t>& members : frontier) {
      size_t covered = 0;
      for (size_t v = 0; v < num_query_vertices; ++v) {
        for (uint32_t m : members) {
          if ((features[m].sign >> v) & 1u) {
            ++covered;
            break;
          }
        }
      }
      if (covered == num_query_vertices) {
        for (uint32_t m : members) survives[m] = true;
        continue;
      }
      for (uint32_t j = 0; j < features.size(); ++j) {
        bool disjoint_and_agreeing = true;
        bool linked = false;
        for (uint32_t m : members) {
          for (size_t v = 0; v < num_query_vertices; ++v) {
            if ((features[m].sign >> v) & (features[j].sign >> v) & 1u) {
              disjoint_and_agreeing = false;
            }
          }
          if (!EndpointsAgree(features[m].crossing, features[j].crossing)) {
            disjoint_and_agreeing = false;
          }
          if (SharesIdenticalMapping(features[m].crossing,
                                     features[j].crossing)) {
            linked = true;
          }
        }
        if (!disjoint_and_agreeing || !linked) continue;
        std::vector<uint32_t> grown = members;
        grown.insert(std::upper_bound(grown.begin(), grown.end(), j), j);
        if (reached.insert(grown).second) next.push_back(std::move(grown));
      }
    }
    frontier = std::move(next);
  }
  return survives;
}

/// Checks LecFeaturePruning's surviving set against OracleSurvivors, serial
/// and on `pool` (where the bitmap OR-fold must reproduce the serial run
/// exactly), and returns the serial result.
PruneResult CheckSurvivorsAgainstOracle(const std::vector<LecFeature>& features,
                                        size_t num_query_vertices,
                                        ThreadPool& pool,
                                        const std::string& label) {
  for (const LecFeature& f : features) {
    // Def. 5: every LPM has a crossing edge, so no feature is complete on
    // its own — the singleton set never meets the oracle's conditions.
    EXPECT_FALSE(f.crossing.empty()) << label;
    EXPECT_NE(f.sign, FullSign(num_query_vertices)) << label;
  }
  std::vector<bool> oracle = OracleSurvivors(features, num_query_vertices);
  PruneResult serial = LecFeaturePruning(features, num_query_vertices);
  EXPECT_FALSE(serial.bailed_out) << label;
  EXPECT_EQ(serial.survives, oracle)
      << label << " (" << features.size() << " features)";

  PruneOptions parallel_options;
  parallel_options.num_threads = 4;
  parallel_options.pool = &pool;
  parallel_options.min_seeds_per_slot = 1;
  PruneResult parallel =
      LecFeaturePruning(features, num_query_vertices, parallel_options);
  EXPECT_EQ(parallel.survives, serial.survives) << label;
  EXPECT_EQ(parallel.bailed_out, serial.bailed_out) << label;
  return serial;
}

using ::gstored::testing::EnumerateAllLpms;

/// Runs the oracle comparison on one dataset/query/partitioning triple and
/// returns the number of crossing matches, so sweeps can assert they
/// exercised non-trivial joins rather than passing vacuously.
size_t CheckAssemblyAgainstOracle(const Dataset& dataset,
                                  const QueryGraph& query,
                                  const Partitioning& partitioning,
                                  const std::string& label) {
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  std::vector<LocalPartialMatch> lpms = EnumerateAllLpms(partitioning, rq);
  const size_t n = query.num_vertices();

  size_t oracle_conflicts = 0;
  std::vector<Binding> oracle = OracleAssembly(lpms, n, &oracle_conflicts);
  EXPECT_EQ(oracle_conflicts, 0u) << label;  // Thm. 3 on real populations

  AssemblyStats stats;
  std::vector<Binding> lec = LecAssembly(lpms, n, &stats);
  EXPECT_EQ(stats.binding_conflicts, 0u) << label;
  std::vector<Binding> lec_sorted = lec;
  DedupBindings(&lec_sorted);
  EXPECT_EQ(lec_sorted, oracle) << label << " (" << lpms.size() << " LPMs)";

  // The ungrouped worklist baseline agrees too.
  std::vector<Binding> basic = BasicAssembly(lpms, n);
  DedupBindings(&basic);
  EXPECT_EQ(basic, oracle) << label;

  // Parallel assembly produces the same set (byte-level determinism is
  // parallel_determinism_test's job; the oracle pins the set semantics).
  ThreadPool pool(3);
  AssemblyOptions parallel_options;
  parallel_options.num_threads = 4;
  parallel_options.pool = &pool;
  parallel_options.min_seeds_per_slot = 1;  // engage the pool on tiny groups
  std::vector<Binding> parallel =
      LecAssembly(lpms, n, parallel_options, nullptr);
  EXPECT_EQ(parallel, lec) << label;  // byte-identical, not merely same set
  DedupBindings(&parallel);
  EXPECT_EQ(parallel, oracle) << label;

  // The probe both joins share gives Def. 9's verdict on every pair.
  LecFeatureSet feature_set = ComputeLecFeatures(lpms);
  CheckProbeAgainstOracle(lpms, label + " LPMs");
  CheckProbeAgainstOracle(feature_set.features, label + " features");

  // Pruning, serial and parallel, keeps exactly the oracle's survivors,
  // and assembling only the survivors still reproduces the oracle's
  // matches — pruning removes nothing that any complete chain needs.
  PruneResult serial_prune =
      CheckSurvivorsAgainstOracle(feature_set.features, n, pool, label);
  std::vector<LocalPartialMatch> surviving;
  for (size_t i = 0; i < lpms.size(); ++i) {
    if (serial_prune.survives[feature_set.feature_of_lpm[i]]) {
      surviving.push_back(lpms[i]);
    }
  }
  std::vector<Binding> pruned_lec = LecAssembly(surviving, n);
  DedupBindings(&pruned_lec);
  EXPECT_EQ(pruned_lec, oracle) << label;

  // Every assembled crossing match is a genuine match of the whole graph.
  LocalStore oracle_store(&dataset.graph());
  for (const Binding& b : oracle) {
    EXPECT_TRUE(std::none_of(b.begin(), b.end(),
                             [](TermId t) { return t == kNullTerm; }))
        << label;
    EXPECT_TRUE(VerifyMatch(dataset.graph(), rq, b)) << label;
  }
  return oracle.size();
}

using RefScenario = ::gstored::testing::ReferenceScenario;

class AssemblyReference : public ::testing::TestWithParam<RefScenario> {};

TEST_P(AssemblyReference, LecAssemblyMatchesBruteForceOracle) {
  const RefScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
  QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                          s.query_edges);
  Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
  CheckAssemblyAgainstOracle(*dataset, query, partitioning,
                             "reference seed=" + std::to_string(s.seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssemblyReference,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

/// Fresh randomized multi-site scenarios beyond the shared ten: different
/// seeds, 2-5 fragments, random vertex assignments as well as hash
/// partitionings, and slightly larger query shapes.
TEST(AssemblyReferenceRandomized, MultiSiteScenarios) {
  size_t total_crossing_matches = 0;
  for (uint64_t i = 0; i < 12; ++i) {
    Rng rng(0xA55E0B1Eu + i * 104729);
    size_t vertices = 10 + (i % 4) * 4;
    size_t edges = 28 + (i % 5) * 9;
    size_t predicates = 2 + (i % 3);
    size_t query_vertices = 3 + (i % 3);
    size_t query_edges = query_vertices - 1 + (i % 2);
    int fragments = 2 + static_cast<int>(i % 4);

    auto dataset = RandomDataset(rng, vertices, edges, predicates);
    QueryGraph query =
        RandomConnectedQuery(rng, *dataset, query_vertices, query_edges);
    Partitioning partitioning =
        (i % 2 == 0)
            ? HashPartitioner().Partition(*dataset, fragments)
            : BuildPartitioning(*dataset,
                                RandomAssignment(rng, *dataset, fragments),
                                fragments, "random");
    total_crossing_matches += CheckAssemblyAgainstOracle(
        *dataset, query, partitioning, "randomized i=" + std::to_string(i));
  }
  // The sweep must actually exercise multi-site joins, not just agree on
  // empty result sets.
  EXPECT_GT(total_crossing_matches, 0u);
}

/// The probe oracle on the LEC features of LUBM-3's LQ1 and LQ7 over 4 hash
/// sites. Both queries close a triangle, so two features can share a
/// crossing mapping and still bind a third vertex apart: the case Def. 9's
/// endpoint check exists for, which both inputs must reach.
TEST(ProbeReference, LubmTriangleFeatures) {
  LubmConfig config;
  config.universities = 3;
  Workload workload = MakeLubmWorkload(config);
  Partitioning partitioning =
      HashPartitioner().Partition(*workload.dataset, 4);
  for (size_t q : {0, 6}) {
    const BenchmarkQuery& lq = workload.queries[q];
    ResolvedQuery rq = ResolveQuery(lq.query, workload.dataset->dict());
    std::vector<LecFeature> features =
        ComputeLecFeatures(EnumerateAllLpms(partitioning, rq)).features;
    EXPECT_GT(CheckProbeAgainstOracle(features, lq.name), 0u) << lq.name;
  }
}

/// LecFeaturePruning keeps exactly the oracle's survivors on randomized
/// multi-site scenarios: 2-4 fragments, hash and random partitionings,
/// query shapes from paths to cyclic. The sweep must include cases where
/// pruning keeps some features and drops others, so it pins the exact set
/// rather than passing on all-or-nothing outcomes.
TEST(PruningSurvivorOracle, RandomizedMultiSiteScenarios) {
  ThreadPool pool(3);
  size_t partial_cases = 0;
  size_t nonempty_cases = 0;
  for (uint64_t i = 0; i < 240; ++i) {
    Rng rng(0x5EED5u + i * 7919);
    size_t vertices = 8 + (i % 5) * 2;
    size_t edges = 20 + (i % 7) * 5;
    size_t predicates = 1 + (i % 4);
    size_t query_vertices = 2 + (i % 4);
    size_t query_edges = query_vertices - 1 + (i % 3);
    int fragments = 2 + static_cast<int>(i % 3);

    auto dataset = RandomDataset(rng, vertices, edges, predicates);
    QueryGraph query =
        RandomConnectedQuery(rng, *dataset, query_vertices, query_edges);
    Partitioning partitioning =
        (i % 2 == 0)
            ? HashPartitioner().Partition(*dataset, fragments)
            : BuildPartitioning(*dataset,
                                RandomAssignment(rng, *dataset, fragments),
                                fragments, "random");
    ResolvedQuery rq = ResolveQuery(query, dataset->dict());
    std::vector<LecFeature> features =
        ComputeLecFeatures(EnumerateAllLpms(partitioning, rq)).features;
    size_t survivors =
        CheckSurvivorsAgainstOracle(features, query.num_vertices(), pool,
                                    "survivors i=" + std::to_string(i))
            .surviving_features;
    if (survivors > 0) ++nonempty_cases;
    if (survivors > 0 && survivors < features.size()) ++partial_cases;
  }
  EXPECT_GT(nonempty_cases, 0u);
  EXPECT_GT(partial_cases, 0u);
}

/// The assembly must also agree with the oracle when fed the LPMs that
/// survive LEC pruning (the production kLecPruning path): pruning only
/// removes LPMs that contribute to no complete chain, so the oracle over
/// the surviving set yields the same matches as over the full set.
TEST(AssemblyReferenceRandomized, OracleStableUnderPruning) {
  for (uint64_t seed : {7u, 21u, 63u}) {
    Rng rng(seed * 2654435761u);
    auto dataset = RandomDataset(rng, 12, 40, 3);
    QueryGraph query = RandomConnectedQuery(rng, *dataset, 3, 4);
    Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
    ResolvedQuery rq = ResolveQuery(query, dataset->dict());
    std::vector<LocalPartialMatch> all = EnumerateAllLpms(partitioning, rq);

    LecFeatureSet set = ComputeLecFeatures(all);
    PruneResult prune = LecFeaturePruning(set.features, query.num_vertices());
    std::vector<LocalPartialMatch> surviving;
    for (size_t i = 0; i < all.size(); ++i) {
      if (prune.survives[set.feature_of_lpm[i]]) surviving.push_back(all[i]);
    }

    std::vector<Binding> oracle_all =
        OracleAssembly(all, query.num_vertices());
    std::vector<Binding> oracle_surviving =
        OracleAssembly(surviving, query.num_vertices());
    EXPECT_EQ(oracle_surviving, oracle_all) << "seed=" << seed;

    std::vector<Binding> lec = LecAssembly(surviving, query.num_vertices());
    DedupBindings(&lec);
    EXPECT_EQ(lec, oracle_all) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace gstored
