// Focused unit tests of the core building blocks: LEC features and
// joinability (including the cyclic-query endpoint-consistency regression),
// crossing-map merging, binding merges, Algorithm 1's dedup, Algorithm 2's
// edge cases (empty input, outlier removal, bail-out before and during the
// walk), assembly edge cases, the chain join's probe counts (only
// crossing-index candidates are probed), its seed-group scheduling helpers
// (group selection, outlier fixpoint, dynamic thread budget), the SeenSet
// dedup, Algorithm 4's one-sided-error guarantee and its fixed-length union
// over pivoted queries, and a brute-force Def. 5
// oracle for the LPM enumerator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/assembly.h"
#include "core/candidate_exchange.h"
#include "core/engine.h"
#include "core/group_schedule.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "core/seen_set.h"
#include "net/wire.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

LecSign Sign(std::initializer_list<int> bits) {
  LecSign s = 0;
  for (int b : bits) s |= LecSign{1} << b;
  return s;
}

CrossingPairMap Map(QVertexId qf, QVertexId qt, TermId df, TermId dt) {
  return {qf, qt, df, dt};
}

TEST(FeaturesJoinableTest, RequiresSharedMapping) {
  LecSign a = Sign({0});
  LecSign b = Sign({1});
  // No shared crossing mapping at all.
  EXPECT_FALSE(FeaturesJoinable(a, {Map(0, 1, 10, 11)}, b,
                                {Map(1, 2, 11, 12)}));
  // Exact shared mapping.
  EXPECT_TRUE(FeaturesJoinable(a, {Map(0, 1, 10, 11)}, b,
                               {Map(0, 1, 10, 11)}));
  // Same query pair, different data pair: conflict.
  EXPECT_FALSE(FeaturesJoinable(a, {Map(0, 1, 10, 11)}, b,
                                {Map(0, 1, 10, 99)}));
}

TEST(FeaturesJoinableTest, SignOverlapBlocksJoin) {
  LecSign a = Sign({0, 2});
  LecSign b = Sign({2, 3});
  EXPECT_FALSE(FeaturesJoinable(a, {Map(0, 1, 10, 11)}, b,
                                {Map(0, 1, 10, 11)}));
}

TEST(FeaturesJoinableTest, EndpointConflictOnThirdVertexRejected) {
  // The cyclic-query regression (see FeaturesJoinable's doc): both features
  // share mapping (v0,v1)->(10,11), but bind v2 — an endpoint of different
  // crossing edges — to different data vertices. The paper's literal
  // edge-level condition 3 would accept this; the endpoint-level check must
  // reject it.
  LecSign a = Sign({0});
  LecSign b = Sign({1});
  std::vector<CrossingPairMap> cross_a = {Map(0, 1, 10, 11),
                                          Map(0, 2, 10, 20)};
  std::vector<CrossingPairMap> cross_b = {Map(0, 1, 10, 11),
                                          Map(1, 2, 11, 21)};  // v2 -> 21 != 20
  std::sort(cross_a.begin(), cross_a.end());
  std::sort(cross_b.begin(), cross_b.end());
  EXPECT_FALSE(FeaturesJoinable(a, cross_a, b, cross_b));

  // With agreeing v2 endpoints the join is allowed.
  std::vector<CrossingPairMap> cross_b_ok = {Map(0, 1, 10, 11),
                                             Map(1, 2, 11, 20)};
  std::sort(cross_b_ok.begin(), cross_b_ok.end());
  EXPECT_TRUE(FeaturesJoinable(a, cross_a, b, cross_b_ok));
}

TEST(MergeCrossingTest, SortedUnionWithDedup) {
  std::vector<CrossingPairMap> a = {Map(0, 1, 10, 11), Map(1, 2, 11, 12)};
  std::vector<CrossingPairMap> b = {Map(0, 1, 10, 11), Map(2, 3, 12, 13)};
  auto merged = MergeCrossing(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
}

TEST(MergeBindingsTest, NullFillAndConflicts) {
  Binding a = {1, kNullTerm, 3};
  Binding b = {kNullTerm, 2, 3};
  Binding out;
  ASSERT_TRUE(MergeBindings(a, b, &out));
  EXPECT_EQ(out, (Binding{1, 2, 3}));

  Binding conflicting = {9, 2, kNullTerm};
  EXPECT_FALSE(MergeBindings(a, conflicting, &out));
}

TEST(ComputeLecFeaturesTest, DedupAndMapping) {
  LocalPartialMatch pm1;
  pm1.fragment = 0;
  pm1.binding = {10, kNullTerm, kNullTerm, kNullTerm, kNullTerm};
  pm1.sign = Sign({0});
  pm1.crossing = {Map(0, 1, 10, 11)};
  LocalPartialMatch pm2 = pm1;
  pm2.binding = {10, kNullTerm, kNullTerm, kNullTerm, 50};  // same feature
  LocalPartialMatch pm3 = pm1;
  pm3.fragment = 1;  // different fragment => different feature

  LecFeatureSet set = ComputeLecFeatures({pm1, pm2, pm3});
  EXPECT_EQ(set.features.size(), 2u);
  EXPECT_EQ(set.feature_of_lpm[0], set.feature_of_lpm[1]);
  EXPECT_NE(set.feature_of_lpm[0], set.feature_of_lpm[2]);
  EXPECT_TRUE(ComputeLecFeatures({}).features.empty());
}

// Sec. IV-D: a feature costs O(|EQ| + |VQ|) bytes. Checked on the encoded
// batch, whose size the shipment ledger counts: a feature row is its sign
// in ceil(n / 8) bytes plus one id per crossing endpoint, since the query
// and the sign determine the mappings, so one more endpoint adds one id,
// whatever the data ids are.
TEST(LecFeatureTest, EncodedSizeScalesWithQueryNotData) {
  LecFeature small;
  small.fragment = 0;
  small.sign = Sign({0});
  small.crossing = {Map(0, 1, 10, 11)};
  const size_t small_bytes = EncodeLecFeatureBatch({small}, 5).size();
  EXPECT_EQ(small_bytes, 4 + 1 + 2 * sizeof(TermId));  // count, sign, ids
  for (TermId d : {TermId{12}, TermId{1} << 31}) {
    LecFeature larger = small;
    larger.crossing.push_back(Map(0, 2, 10, d));
    EXPECT_EQ(EncodeLecFeatureBatch({larger}, 5).size() - small_bytes,
              sizeof(TermId))
        << "d=" << d;
  }
  // A mapping between endpoints the row already carries adds nothing.
  LecFeature same_ends = small;
  same_ends.crossing.push_back(Map(1, 0, 11, 10));
  EXPECT_EQ(EncodeLecFeatureBatch({same_ends}, 5).size(), small_bytes);
  // The sign takes ceil(n / 8) bytes.
  EXPECT_EQ(EncodeLecFeatureBatch({small}, 9).size(), small_bytes + 1);
}

TEST(PruningTest, EmptyAndSingletonInputs) {
  PruneResult empty = LecFeaturePruning({}, 5);
  EXPECT_TRUE(empty.survives.empty());
  EXPECT_EQ(empty.surviving_features, 0u);

  // A lone feature can never complete an all-ones chain (its own sign can't
  // be all ones — that would mean no crossing edges) => pruned.
  LecFeature lone;
  lone.fragment = 0;
  lone.sign = Sign({0, 1});
  lone.crossing = {Map(0, 2, 10, 20)};
  PruneResult result = LecFeaturePruning({lone}, 5);
  EXPECT_EQ(result.surviving_features, 0u);
}

TEST(PruningTest, TwoComplementaryFeaturesSurvive) {
  size_t n = 2;
  LecFeature a;
  a.fragment = 0;
  a.sign = Sign({0});
  a.crossing = {Map(0, 1, 10, 11)};
  LecFeature b;
  b.fragment = 1;
  b.sign = Sign({1});
  b.crossing = {Map(0, 1, 10, 11)};
  PruneResult result = LecFeaturePruning({a, b}, n);
  EXPECT_EQ(result.surviving_features, 2u);
  EXPECT_FALSE(result.bailed_out);
  EXPECT_EQ(result.num_groups, 2u);
  EXPECT_EQ(result.num_join_graph_edges, 1u);
}

TEST(PruningTest, OutlierGroupsArePruned) {
  size_t n = 2;
  LecFeature a;
  a.fragment = 0;
  a.sign = Sign({0});
  a.crossing = {Map(0, 1, 10, 11)};
  LecFeature b;
  b.fragment = 1;
  b.sign = Sign({1});
  b.crossing = {Map(0, 1, 10, 11)};
  // c shares no mapping with anyone: an outlier in the join graph.
  LecFeature c;
  c.fragment = 2;
  c.sign = Sign({1});
  c.crossing = {Map(0, 1, 77, 78)};
  PruneResult result = LecFeaturePruning({a, b, c}, n);
  EXPECT_TRUE(result.survives[0]);
  EXPECT_TRUE(result.survives[1]);
  EXPECT_FALSE(result.survives[2]);
}

TEST(PruningTest, BailOutKeepsEverything) {
  // Force the bail-out with a tiny joined-feature budget on real data.
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  std::vector<LocalPartialMatch> all;
  for (const Fragment& f : partitioning.fragments()) {
    LocalStore store(&f.graph());
    auto lpms = EnumerateLocalPartialMatches(f, store, rq);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }
  LecFeatureSet set = ComputeLecFeatures(all);
  PruneOptions options;
  options.max_joined_features = 0;
  PruneResult result =
      LecFeaturePruning(set.features, query.num_vertices(), options);
  EXPECT_TRUE(result.bailed_out);
  EXPECT_EQ(result.surviving_features, set.features.size());
}

TEST(PruningTest, MidWalkBailOutKeepsEverythingAtEverySlotCount) {
  LubmConfig config;
  config.universities = 3;
  Workload workload = MakeLubmWorkload(config);
  Partitioning partitioning =
      HashPartitioner().Partition(*workload.dataset, 4);
  auto features_of = [&](const QueryGraph& query) {
    ResolvedQuery rq = ResolveQuery(query, workload.dataset->dict());
    return ComputeLecFeatures(testing::EnumerateAllLpms(partitioning, rq))
        .features;
  };

  // LQ7 over 4 hash sites: 1,391 features whose chain join fits a cap of
  // 1,224 chains and no fewer. One chain less runs a seed out after chains
  // were materialized, where the zero cap above bails at once.
  const QueryGraph& lq7 = workload.queries[6].query;
  const std::vector<LecFeature> features = features_of(lq7);
  ASSERT_EQ(features.size(), 1391u);
  const size_t n = lq7.num_vertices();
  PruneResult unbounded = LecFeaturePruning(features, n);
  ASSERT_FALSE(unbounded.bailed_out);
  EXPECT_EQ(unbounded.surviving_features, 168u);

  ThreadPool pool(3);
  for (size_t threads : {1, 2, 8}) {
    PruneOptions options;
    options.num_threads = threads;
    options.pool = &pool;
    options.min_seeds_per_slot = 1;
    options.max_joined_features = 1223;
    PruneResult bailed = LecFeaturePruning(features, n, options);
    EXPECT_TRUE(bailed.bailed_out) << threads;
    EXPECT_EQ(bailed.surviving_features, features.size()) << threads;
    if (threads == 1) {
      // One slot stops right where its seed runs out: past the group
      // graph's 191 probes, short of the full join's 3,845.
      EXPECT_EQ(bailed.join_attempts, 2292u);
    }

    options.max_joined_features = 1224;
    PruneResult fits = LecFeaturePruning(features, n, options);
    EXPECT_FALSE(fits.bailed_out) << threads;
    EXPECT_EQ(fits.survives, unbounded.survives) << threads;
    EXPECT_EQ(fits.join_attempts, unbounded.join_attempts) << threads;
  }

  // LQ1 at a cap of 100: the seed runs out one level below the top of its
  // walk, so only the poll inside the walk stops the enclosing level from
  // probing its next group (3,912 probes without it).
  const QueryGraph& lq1 = workload.queries[0].query;
  PruneOptions options;
  options.max_joined_features = 100;
  PruneResult bailed =
      LecFeaturePruning(features_of(lq1), lq1.num_vertices(), options);
  EXPECT_TRUE(bailed.bailed_out);
  EXPECT_EQ(bailed.join_attempts, 3911u);
}

TEST(AssemblyTest, EmptyAndUnjoinableInputs) {
  EXPECT_TRUE(LecAssembly({}, 3).empty());
  EXPECT_TRUE(BasicAssembly({}, 3).empty());

  LocalPartialMatch pm;
  pm.fragment = 0;
  pm.binding = {10, 11, kNullTerm};
  pm.sign = Sign({0});
  pm.crossing = {Map(0, 1, 10, 11)};
  // A single LPM cannot form a complete match.
  EXPECT_TRUE(LecAssembly({pm}, 3).empty());
  EXPECT_TRUE(BasicAssembly({pm}, 3).empty());
}

TEST(AssemblyTest, ThreeWayChainAssembles) {
  // Path query v0-v1-v2 split over three fragments: each LPM owns one
  // vertex; the complete match needs a 3-way chain.
  size_t n = 3;
  LocalPartialMatch a;
  a.fragment = 0;
  a.binding = {100, 101, kNullTerm};
  a.sign = Sign({0});
  a.crossing = {Map(0, 1, 100, 101)};
  LocalPartialMatch b;
  b.fragment = 1;
  b.binding = {100, 101, 102};
  b.sign = Sign({1});
  b.crossing = {Map(0, 1, 100, 101), Map(1, 2, 101, 102)};
  LocalPartialMatch c;
  c.fragment = 2;
  c.binding = {kNullTerm, 101, 102};
  c.sign = Sign({2});
  c.crossing = {Map(1, 2, 101, 102)};
  for (auto* pm : {&a, &b, &c}) {
    std::sort(pm->crossing.begin(), pm->crossing.end());
  }
  AssemblyStats stats;
  std::vector<Binding> matches = LecAssembly({a, b, c}, n, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (Binding{100, 101, 102}));
  EXPECT_EQ(stats.binding_conflicts, 0u);
  EXPECT_EQ(BasicAssembly({a, b, c}, n), matches);
}

/// A seed LPM s signed {v0} and a group of `k` LPMs signed {v1}. Only the
/// one at index 1 + k / 2 shares s's crossing mapping; the others map the
/// same query edge to other data vertices. Fragments are distinct, so the
/// LEC features of these LPMs are one per LPM, in the same order.
std::vector<LocalPartialMatch> OneSharingItemFixture(size_t k) {
  std::vector<LocalPartialMatch> lpms;
  lpms.push_back({0, {10, 20}, Sign({0}), {Map(0, 1, 10, 20)}});
  for (size_t i = 0; i < k; ++i) {
    TermId from = i == k / 2 ? 10 : static_cast<TermId>(100 + i);
    TermId to = i == k / 2 ? 20 : static_cast<TermId>(200 + i);
    lpms.push_back({static_cast<FragmentId>(1 + i), {from, to},
                    Sign({1}), {Map(0, 1, from, to)}});
  }
  return lpms;
}

/// Path v0 -> v1 -> v2: a seed s signed {v0}, an LPM a signed {v1} that
/// joins s, and a group of `k` LPMs signed {v1, v2} linked to s's group in
/// the join graph by the one at index 2 + k / 2, which shares s's mapping.
/// Once the chain s+a is formed ({v0, v1}), that group overlaps it.
std::vector<LocalPartialMatch> OverlappingGroupFixture(size_t k) {
  std::vector<LocalPartialMatch> lpms;
  lpms.push_back({0, {10, 20, kNullTerm}, Sign({0}), {Map(0, 1, 10, 20)}});
  lpms.push_back({1, {10, 20, 30}, Sign({1}),
                  {Map(0, 1, 10, 20), Map(1, 2, 20, 30)}});
  for (size_t i = 0; i < k; ++i) {
    TermId base = i == k / 2 ? 0 : static_cast<TermId>(100 * (i + 1));
    lpms.push_back({static_cast<FragmentId>(2 + i),
                    {base + 10, base + 20, base + 30}, Sign({1, 2}),
                    {Map(0, 1, base + 10, base + 20)}});
  }
  return lpms;
}

/// The FeaturesJoinable probes the group join graph of `items` costs; a
/// chain join's join_attempts minus this is its DFS probe count.
template <typename Item>
size_t GraphProbes(const std::vector<Item>& items) {
  JoinGraphStats stats;
  CrossingIndex<Item>(items, GroupBySign(items)).JoinGraph(&stats);
  return stats.join_attempts;
}

// Pruning's DFS probes, in a group of k features, only the one feature that
// shares a crossing mapping with the seed: exactly one probe for any k
// (a full-group scan would make k).
TEST(ChainJoinProbesTest, PruningProbesOnlyTheSharingFeature) {
  for (size_t k : {size_t{1}, size_t{4}, size_t{32}}) {
    std::vector<LecFeature> features =
        ComputeLecFeatures(OneSharingItemFixture(k)).features;
    ASSERT_EQ(features.size(), k + 1);
    PruneResult result = LecFeaturePruning(features, 2);
    EXPECT_EQ(result.join_attempts, GraphProbes(features) + 1) << "k=" << k;
    EXPECT_EQ(result.surviving_features, 2u) << "k=" << k;
    EXPECT_TRUE(result.survives[0]);
    EXPECT_TRUE(result.survives[1 + k / 2]);
  }
}

TEST(ChainJoinProbesTest, AssemblyProbesOnlyTheSharingLpm) {
  for (size_t k : {size_t{1}, size_t{4}, size_t{32}}) {
    std::vector<LocalPartialMatch> lpms = OneSharingItemFixture(k);
    AssemblyStats stats;
    std::vector<Binding> matches = LecAssembly(lpms, 2, &stats);
    EXPECT_EQ(stats.join_attempts, GraphProbes(lpms) + 1) << "k=" << k;
    ASSERT_EQ(matches.size(), 1u) << "k=" << k;
    EXPECT_EQ(matches[0], (Binding{10, 20}));
  }
}

// Seeded at s, the DFS probes a (1), then meets the {v1, v2} group with the
// chain s+a, whose sign overlaps it: zero probes, for any group size. Back
// at depth 0, s alone probes that group's one sharing item (1), which
// completes the match. Retiring s's group then isolates the rest. So the
// DFS makes exactly 2 probes; probing the overlapping group's candidate
// would make 3, and full-group scans 1 + 2k.
TEST(ChainJoinProbesTest, PruningSkipsGroupOverlappingTheChain) {
  for (size_t k : {size_t{1}, size_t{4}, size_t{32}}) {
    std::vector<LecFeature> features =
        ComputeLecFeatures(OverlappingGroupFixture(k)).features;
    ASSERT_EQ(features.size(), k + 2);
    PruneResult result = LecFeaturePruning(features, 3);
    EXPECT_EQ(result.join_attempts, GraphProbes(features) + 2) << "k=" << k;
    EXPECT_EQ(result.surviving_features, 2u) << "k=" << k;
    EXPECT_TRUE(result.survives[0]);
    EXPECT_FALSE(result.survives[1]);  // s+a has no disjoint completion
    EXPECT_TRUE(result.survives[2 + k / 2]);
  }
}

TEST(ChainJoinProbesTest, AssemblySkipsGroupOverlappingTheChain) {
  for (size_t k : {size_t{1}, size_t{4}, size_t{32}}) {
    std::vector<LocalPartialMatch> lpms = OverlappingGroupFixture(k);
    AssemblyStats stats;
    std::vector<Binding> matches = LecAssembly(lpms, 3, &stats);
    EXPECT_EQ(stats.join_attempts, GraphProbes(lpms) + 2) << "k=" << k;
    ASSERT_EQ(matches.size(), 1u) << "k=" << k;
    EXPECT_EQ(matches[0], (Binding{10, 20, 30}));
  }
}

TEST(GroupScheduleTest, SelectMinActiveGroupPicksSmallestActive) {
  std::vector<std::vector<uint32_t>> groups = {{0, 1, 2}, {3}, {4, 5}, {6}};
  std::vector<bool> active = {true, true, true, true};
  // Smallest wins; ties (groups 1 and 3, size 1) go to the lower index.
  EXPECT_EQ(SelectMinActiveGroup(groups, active), 1u);
  active[1] = false;
  EXPECT_EQ(SelectMinActiveGroup(groups, active), 3u);
  active[3] = false;
  EXPECT_EQ(SelectMinActiveGroup(groups, active), 2u);
  active = {false, false, false, false};
  EXPECT_EQ(SelectMinActiveGroup(groups, active), kNoGroup);
}

TEST(GroupScheduleTest, DeactivateIsolatedGroupsCascadesToFixpoint) {
  // Path 0-1-2 plus isolated 3: retiring 0's neighbor chain cascades.
  std::vector<std::vector<uint32_t>> adjacency = {{1}, {0, 2}, {1}, {}};
  std::vector<bool> active = {true, true, true, true};
  DeactivateIsolatedGroups(adjacency, &active);
  // 3 has no neighbors at all; the path keeps each other alive.
  EXPECT_EQ(active, (std::vector<bool>{true, true, true, false}));

  // Retire the middle of the path: both ends lose their only neighbor.
  active = {true, false, true, false};
  DeactivateIsolatedGroups(adjacency, &active);
  EXPECT_EQ(active, (std::vector<bool>{false, false, false, false}));
}

TEST(GroupScheduleTest, JoinSlotBudgetSkipsPoolForTinyGroups) {
  // One slot per full quota of seeds (default quota 4 in AssemblyOptions).
  EXPECT_EQ(JoinSlotBudget(0, 8, 4), 1u);
  EXPECT_EQ(JoinSlotBudget(1, 8, 4), 1u);
  EXPECT_EQ(JoinSlotBudget(7, 8, 4), 1u);   // below 2 quotas: serial
  EXPECT_EQ(JoinSlotBudget(8, 8, 4), 2u);   // two full quotas: two slots
  EXPECT_EQ(JoinSlotBudget(64, 8, 4), 8u);  // capped by num_threads
  EXPECT_EQ(JoinSlotBudget(1000, 8, 4), 8u);
  // Serial callers and zero quotas degrade safely.
  EXPECT_EQ(JoinSlotBudget(1000, 1, 4), 1u);
  EXPECT_EQ(JoinSlotBudget(3, 8, 1), 3u);  // never more slots than seeds
  EXPECT_EQ(JoinSlotBudget(3, 8, 0), 3u);  // 0 quota treated as 1
}

TEST(GroupScheduleTest, SiteSlotBudgetScalesWithFragmentSize) {
  // The engine knob is a ceiling: small fragments run serially no matter
  // how many threads the engine allows, and the budget grows one slot per
  // kSiteTriplesPerSlot triples up to the knob.
  EXPECT_EQ(SiteSlotBudget(0, 8), 1u);
  EXPECT_EQ(SiteSlotBudget(100, 8), 1u);
  EXPECT_EQ(SiteSlotBudget(kSiteTriplesPerSlot * 2 - 1, 8), 1u);
  EXPECT_EQ(SiteSlotBudget(kSiteTriplesPerSlot * 2, 8), 2u);
  EXPECT_EQ(SiteSlotBudget(kSiteTriplesPerSlot * 100, 8), 8u);  // capped
  EXPECT_EQ(SiteSlotBudget(kSiteTriplesPerSlot * 100, 1), 1u);  // knob off
}

TEST(GroupScheduleTest, SiteSlotBudgetCappedByStartCandidateEstimate) {
  // Query-shape-aware variant: the parallel matcher partitions across the
  // start vertex's candidate domain, so the planner's candidate estimate
  // caps the budget — a selective star in a huge fragment runs serially.
  const size_t big = kSiteTriplesPerSlot * 100;
  EXPECT_EQ(SiteSlotBudget(big, 8, 1), 1u);    // one candidate: serial
  EXPECT_EQ(SiteSlotBudget(big, 8, 0), 1u);    // degenerate estimate: serial
  EXPECT_EQ(SiteSlotBudget(big, 8, 3), 3u);    // three candidates: three slots
  EXPECT_EQ(SiteSlotBudget(big, 8, 500), 8u);  // plenty: fragment budget wins
  // The fragment-size ceiling still binds first on small fragments.
  EXPECT_EQ(SiteSlotBudget(100, 8, 500), 1u);
  EXPECT_EQ(SiteSlotBudget(kSiteTriplesPerSlot * 2, 8, 500), 2u);
  // A serial engine knob stays serial regardless of the estimate.
  EXPECT_EQ(SiteSlotBudget(big, 1, 500), 1u);
}

TEST(SeenSetTest, MatchesStdSetReference) {
  // Seeded (sign, binding) streams with forced duplicates: every
  // CheckAndInsert outcome and the final size agree with a std::set.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed * 7919u);
    std::vector<std::pair<LecSign, Binding>> stream;
    for (size_t i = 0; i < 200; ++i) {
      if (!stream.empty() && rng.Chance(0.3)) {
        stream.push_back(stream[rng.Uniform(stream.size())]);  // duplicate
      } else {
        LecSign sign = 0;
        for (size_t b = 0; b < 5; ++b) {
          if (rng.Chance(0.4)) sign |= LecSign{1} << b;
        }
        Binding binding(5);
        for (auto& t : binding) {
          t = rng.Chance(0.2) ? kNullTerm
                              : static_cast<TermId>(rng.Uniform(6));
        }
        stream.push_back({sign, std::move(binding)});
      }
    }

    SeenSet set;
    std::set<std::pair<LecSign, Binding>> reference;
    for (const auto& [sign, binding] : stream) {
      const bool fresh = reference.emplace(sign, binding).second;
      EXPECT_EQ(set.CheckAndInsert(sign, binding), !fresh) << "seed=" << seed;
    }
    EXPECT_EQ(set.size(), reference.size()) << "seed=" << seed;
  }

  // Clear empties the set, and it records entries afresh afterwards.
  SeenSet set;
  const LecSign sign = Sign({1});
  EXPECT_FALSE(set.CheckAndInsert(sign, {1, 2, 3}));
  EXPECT_TRUE(set.CheckAndInsert(sign, {1, 2, 3}));
  EXPECT_EQ(set.size(), 1u);
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.CheckAndInsert(sign, {1, 2, 3}));
  EXPECT_EQ(set.size(), 1u);
}

/// What a fault-free Alg. 4 round must ship and build, computed from each
/// store's Candidates without the exchange's own form choice: per site and
/// query vertex, the internal candidates (ascending).
class ExchangeOracle {
 public:
  ExchangeOracle(const Partitioning& partitioning,
                 const std::vector<const LocalStore*>& stores,
                 const ResolvedQuery& rq)
      : query_(*rq.query), candidates_(stores.size()) {
    for (size_t site = 0; site < stores.size(); ++site) {
      const Fragment& fragment = partitioning.fragments()[site];
      candidates_[site].resize(query_.num_vertices());
      for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
        if (!query_.vertex(v).is_variable) continue;
        for (TermId u : stores[site]->Candidates(rq, v)) {
          if (fragment.IsInternal(u)) candidates_[site][v].push_back(u);
        }
      }
    }
  }

  const std::vector<TermId>& Candidates(size_t site, QVertexId v) const {
    return candidates_[site][v];
  }

  /// An id costs 4 bytes, a `bits`-bit vector 8 bytes per word, so a list
  /// of `count` ids is the shorter form below 2 * ceil(bits / 64).
  static bool IdsShorter(size_t count, size_t bits) {
    return 4 * count < 8 * ((bits + 63) / 64);
  }

  /// The fixed-length union of the paper's Alg. 4: the OR of every site's
  /// `bits`-bit vector over its internal candidates of v.
  BitvectorFilter FixedUnion(QVertexId v, size_t bits) const {
    BitvectorFilter filter(bits);
    for (const auto& site : candidates_) {
      for (TermId u : site[v]) filter.Insert(u);
    }
    return filter;
  }

  /// True when every site's candidates of v are shorter as ids.
  bool AllSitesIds(QVertexId v, size_t bits) const {
    return std::all_of(candidates_.begin(), candidates_.end(),
                       [&](const auto& site) {
                         return IdsShorter(site[v].size(), bits);
                       });
  }
  bool NoSiteIds(QVertexId v, size_t bits) const {
    return std::none_of(candidates_.begin(), candidates_.end(),
                        [&](const auto& site) {
                          return IdsShorter(site[v].size(), bits);
                        });
  }

  /// The `candidates` ledger of a fault-free round: each site's filter set
  /// and done marker, then one union broadcast per site over the variables
  /// `exchange` kept (none when it kept none), every message at header plus
  /// payload. With `ids` false, every entry is a vector: the fixed-length
  /// round.
  size_t LedgerBytes(const CandidateExchange& exchange, size_t bits,
                     bool ids = true) const {
    const size_t h = WireMessage::kHeaderBytes;
    size_t bytes = 0;
    for (size_t site = 0; site < candidates_.size(); ++site) {
      FilterSet set;
      for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
        if (!query_.vertex(v).is_variable) continue;
        const std::vector<TermId>& c = candidates_[site][v];
        set.push_back(ids && IdsShorter(c.size(), bits)
                          ? IdEntry(v, c, bits)
                          : VectorEntry(v, Vector(c, bits)));
      }
      bytes += h + EncodeFilterSet(set).size();
      bytes += h + EncodeDoneMarker(1).size();
    }
    FilterSet union_set;
    for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
      if (!exchange.exchanged[v]) continue;
      std::vector<TermId> merged;
      for (const auto& site : candidates_) {
        merged.insert(merged.end(), site[v].begin(), site[v].end());
      }
      std::sort(merged.begin(), merged.end());
      union_set.push_back(ids && AllSitesIds(v, bits) &&
                                  IdsShorter(merged.size(), bits)
                              ? IdEntry(v, merged, bits)
                              : VectorEntry(v, FixedUnion(v, bits)));
    }
    if (!union_set.empty()) {
      bytes += candidates_.size() * (h + EncodeFilterSet(union_set).size());
    }
    return bytes;
  }

 private:
  static BitvectorFilter Vector(const std::vector<TermId>& ids, size_t bits) {
    BitvectorFilter filter(bits);
    for (TermId u : ids) filter.Insert(u);
    return filter;
  }
  static FilterEntry IdEntry(QVertexId v, const std::vector<TermId>& ids,
                             size_t bits) {
    FilterEntry entry;
    entry.var = v;
    entry.bits = bits;
    entry.ids = ids;
    return entry;
  }
  static FilterEntry VectorEntry(QVertexId v, BitvectorFilter vector) {
    FilterEntry entry;
    entry.var = v;
    entry.bits = vector.bits();
    entry.vector = std::move(vector);
    return entry;
  }

  const QueryGraph& query_;
  std::vector<std::vector<std::vector<TermId>>> candidates_;
};

/// Alg. 4's fixture: the paper's example over its three fragments, one
/// LocalStore per fragment.
class CandidateExchangeTest : public ::testing::Test {
 protected:
  CandidateExchangeTest() {
    for (const Fragment& f : partitioning_.fragments()) {
      stores_.push_back(std::make_unique<LocalStore>(&f.graph()));
      store_ptrs_.push_back(stores_.back().get());
    }
    oracle_.emplace(partitioning_, store_ptrs_, rq_);
  }

  CandidateExchange Exchange(QuerySession& session,
                             const CandidateExchangeOptions& options = {}) {
    return ExchangeInternalCandidates(partitioning_, store_ptrs_, rq_,
                                      session.transport, session.ledger,
                                      options);
  }

  /// One-sided error: every vertex of every true match passes its
  /// variable's union, for every variable that was exchanged.
  void ExpectOneSidedError(const CandidateExchange& exchange) const {
    LocalStore oracle(&dataset_->graph());
    for (const Binding& m : MatchQuery(oracle, rq_)) {
      for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
        if (!query_.vertex(v).is_variable || !exchange.exchanged[v]) continue;
        EXPECT_TRUE(exchange.filters[v].MayContain(m[v])) << "v=" << v;
      }
    }
  }

  std::unique_ptr<Dataset> dataset_ = testing::BuildPaperDataset();
  Partitioning partitioning_ = testing::BuildPaperPartitioning(*dataset_);
  QueryGraph query_ = testing::BuildPaperQuery();
  ResolvedQuery rq_ = ResolveQuery(query_, dataset_->dict());
  std::vector<std::unique_ptr<LocalStore>> stores_;
  std::vector<const LocalStore*> store_ptrs_;
  std::optional<ExchangeOracle> oracle_;
};

TEST_F(CandidateExchangeTest, FiltersAreSoundOverSites) {
  QuerySession session(3);
  CandidateExchange exchange = Exchange(session);
  ExpectOneSidedError(exchange);
  // Shipment accounting is the serialized wire traffic: the per-site filter
  // sets up and the union broadcast back, and the ledger must agree with
  // the exchange's own number exactly. No entry is longer than its vector,
  // and the example's few candidates all go as ids, so the round ships
  // less than the fixed-length one would.
  const size_t bits = BitvectorFilter::kDefaultBits;
  EXPECT_LT(exchange.shipment_bytes,
            oracle_->LedgerBytes(exchange, bits, /*ids=*/false));
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            exchange.shipment_bytes);
  EXPECT_FALSE(exchange.degraded);
  for (bool ok : exchange.site_filter_ok) EXPECT_TRUE(ok);

  // Without the saturation rule every variable's union is broadcast, and a
  // fault-free exchange is byte-deterministic: re-running it on a fresh
  // session reproduces the ledger exactly.
  QuerySession legacy_session(3);
  CandidateExchangeOptions legacy;
  legacy.use_statistics = false;
  CandidateExchange full = Exchange(legacy_session, legacy);
  EXPECT_LT(full.shipment_bytes,
            oracle_->LedgerBytes(full, bits, /*ids=*/false));
  for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
    EXPECT_EQ(full.exchanged[v], query_.vertex(v).is_variable);
  }
  QuerySession replay_session(3);
  CandidateExchange replay = Exchange(replay_session, legacy);
  EXPECT_EQ(replay.shipment_bytes, full.shipment_bytes);
}

TEST_F(CandidateExchangeTest, OneRoundShipsFilterSetsAndOneUnionBroadcast) {
  // Alg. 4 is one round: each site's filter set and done marker up, the
  // union back to each site, every message at header plus payload. No
  // other traffic reaches the ledger.
  QuerySession session(3);
  CandidateExchange exchange = Exchange(session);
  ASSERT_FALSE(exchange.degraded);
  const size_t bits = BitvectorFilter::kDefaultBits;
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            oracle_->LedgerBytes(exchange, bits));
  EXPECT_EQ(exchange.shipment_bytes, oracle_->LedgerBytes(exchange, bits));
  EXPECT_EQ(exchange.transport_retries, 0u);
  EXPECT_EQ(exchange.hedged_sites, 0u);
  // Four variables at three sites, each as its ids.
  EXPECT_EQ(exchange.id_entries, 12u);
  EXPECT_EQ(exchange.vector_entries, 0u);

  // At the default width nothing saturates, so every variable is exchanged,
  // and its union is exactly the OR of fixed-length site vectors.
  for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
    EXPECT_EQ(exchange.exchanged[v], query_.vertex(v).is_variable);
    if (!exchange.exchanged[v]) continue;
    EXPECT_EQ(exchange.filters[v].words(), oracle_->FixedUnion(v, bits).words())
        << "v=" << v;
  }
}

TEST_F(CandidateExchangeTest, SaturatedFiltersAreSkippedAndStaySound) {
  // One-bit vectors: a variable with an internal candidate at any site has
  // a full union, so the coordinator withholds it. A variable with none
  // keeps an empty union and stays exchanged.
  CandidateExchangeOptions options;
  options.filter_bits = 1;
  QuerySession session(3);
  CandidateExchange exchange = Exchange(session, options);
  ASSERT_FALSE(exchange.degraded);
  std::vector<bool> has_candidate(query_.num_vertices(), false);
  for (size_t site = 0; site < store_ptrs_.size(); ++site) {
    for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
      if (!oracle_->Candidates(site, v).empty()) has_candidate[v] = true;
    }
  }
  size_t withheld = 0;
  for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
    if (!query_.vertex(v).is_variable) continue;
    EXPECT_EQ(exchange.exchanged[v], !has_candidate[v]) << "v=" << v;
    if (has_candidate[v]) ++withheld;
  }
  EXPECT_GT(withheld, 0u);
  // The ledger holds the sites' full filter sets and a union broadcast
  // without the withheld variables (none at all when nothing is left).
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            oracle_->LedgerBytes(exchange, 1));
  EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
            exchange.shipment_bytes);
  // Withheld variables are pass-through and can only admit more
  // assignments; one-sided error holds for whatever was still exchanged.
  ExpectOneSidedError(exchange);

  // Without the saturation rule every variable is exchanged, full or not.
  options.use_statistics = false;
  QuerySession fixed_session(3);
  CandidateExchange fixed = Exchange(fixed_session, options);
  for (QVertexId v = 0; v < query_.num_vertices(); ++v) {
    EXPECT_EQ(fixed.exchanged[v], query_.vertex(v).is_variable) << "v=" << v;
  }
  EXPECT_EQ(fixed_session.ledger.StageBytes(kCandidateStage),
            oracle_->LedgerBytes(fixed, 1));
  ExpectOneSidedError(fixed);
}

TEST(CandidateExchangeSweep, PivotedQueriesKeepTheFixedLengthUnion) {
  // Pivoted queries have answers, so their variables have candidates at
  // several sites: over 3-6 hash and random fragments and three vector
  // lengths, the sweep sees unions built from ids only, from vectors only
  // and from both. Every union must be the fixed-length one, the pivot must
  // pass, and the ledger must be the encoded messages of the chosen forms.
  size_t id_unions = 0;
  size_t vector_unions = 0;
  size_t mixed_unions = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    auto dataset = testing::RandomDataset(rng, 60 + seed % 40,
                                          200 + (seed * 37) % 200,
                                          2 + seed % 3);
    testing::Pivoted pivoted =
        testing::PivotedQuery(rng, *dataset, 2 + seed % 4);
    ResolvedQuery rq = ResolveQuery(pivoted.query, dataset->dict());
    const int k = 3 + static_cast<int>(seed % 4);
    Partitioning partitioning =
        seed % 2 == 0 ? HashPartitioner().Partition(*dataset, k)
                      : BuildPartitioning(
                            *dataset, testing::RandomAssignment(rng, *dataset, k),
                            k, "random");
    std::vector<std::unique_ptr<LocalStore>> stores;
    std::vector<const LocalStore*> store_ptrs;
    for (const Fragment& f : partitioning.fragments()) {
      stores.push_back(std::make_unique<LocalStore>(&f.graph()));
      store_ptrs.push_back(stores.back().get());
    }
    const ExchangeOracle oracle(partitioning, store_ptrs, rq);
    for (size_t bits : {64u, 1024u, 65536u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " bits=" << bits
                   << " query=" << pivoted.query.ToString());
      QuerySession session(k);
      CandidateExchangeOptions options;
      options.filter_bits = bits;
      CandidateExchange exchange = ExchangeInternalCandidates(
          partitioning, store_ptrs, rq, session.transport, session.ledger,
          options);
      ASSERT_FALSE(exchange.degraded);
      size_t id_entries = 0;
      size_t entries = 0;
      for (QVertexId v = 0; v < pivoted.query.num_vertices(); ++v) {
        if (!pivoted.query.vertex(v).is_variable) continue;
        EXPECT_EQ(exchange.filters[v].words(),
                  oracle.FixedUnion(v, bits).words())
            << "v=" << v;
        if (exchange.exchanged[v]) {
          EXPECT_TRUE(exchange.filters[v].MayContain(pivoted.pivot[v]))
              << "v=" << v;
        }
        for (size_t site = 0; site < store_ptrs.size(); ++site) {
          ++entries;
          id_entries += ExchangeOracle::IdsShorter(
              oracle.Candidates(site, v).size(), bits);
        }
        if (oracle.AllSitesIds(v, bits)) {
          ++id_unions;
        } else if (oracle.NoSiteIds(v, bits)) {
          ++vector_unions;
        } else {
          ++mixed_unions;
        }
      }
      EXPECT_EQ(exchange.id_entries, id_entries);
      EXPECT_EQ(exchange.vector_entries, entries - id_entries);
      EXPECT_EQ(session.ledger.StageBytes(kCandidateStage),
                oracle.LedgerBytes(exchange, bits));
      EXPECT_EQ(exchange.shipment_bytes, oracle.LedgerBytes(exchange, bits));
    }
  }
  EXPECT_GT(id_unions, 0u);
  EXPECT_GT(vector_unions, 0u);
  EXPECT_GT(mixed_unions, 0u);
  RecordProperty("id_unions", static_cast<int>(id_unions));
  RecordProperty("vector_unions", static_cast<int>(vector_unions));
  RecordProperty("mixed_unions", static_cast<int>(mixed_unions));
}

TEST(EnumerateLpmsTest, ImpossibleQueryYieldsNothing) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph q;
  q.AddEdge("?x", "<http://nowhere/p>", "?y");
  q.AddEdge("?y", "<http://nowhere/q>", "?z");
  ResolvedQuery rq = ResolveQuery(q, dataset->dict());
  ASSERT_TRUE(rq.impossible);
  const Fragment& f = partitioning.fragments()[0];
  LocalStore store(&f.graph());
  EXPECT_TRUE(EnumerateLocalPartialMatches(f, store, rq).empty());
}

TEST(EnumerateLpmsTest, EveryLpmSatisfiesDefinition5Invariants) {
  Rng rng(321);
  auto dataset = testing::RandomDataset(rng, 30, 110, 4);
  Partitioning partitioning = BuildPartitioning(
      *dataset, testing::RandomAssignment(rng, *dataset, 3), 3, "random");
  QueryGraph query = testing::RandomConnectedQuery(rng, *dataset, 4, 4);
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  for (const Fragment& f : partitioning.fragments()) {
    LocalStore store(&f.graph());
    for (const LocalPartialMatch& pm :
         EnumerateLocalPartialMatches(f, store, rq)) {
      EXPECT_EQ(pm.fragment, f.id());
      EXPECT_FALSE(pm.crossing.empty());   // condition 4
      EXPECT_NE(pm.sign, 0u);  // at least one internal vertex
      EXPECT_NE(pm.sign, FullSign(query.num_vertices()));  // boundary exists
      for (QVertexId v = 0; v < query.num_vertices(); ++v) {
        if ((pm.sign >> v) & 1u) {
          ASSERT_NE(pm.binding[v], kNullTerm);
          EXPECT_TRUE(f.IsInternal(pm.binding[v]));  // sign bit semantics
          // Condition 5: all neighbours of an internal vertex are matched.
          for (QVertexId nb : query.Neighbors(v)) {
            EXPECT_NE(pm.binding[nb], kNullTerm);
          }
        } else if (pm.binding[v] != kNullTerm) {
          EXPECT_TRUE(f.IsExtended(pm.binding[v]));
        }
      }
      // Crossing mappings are consistent with the binding.
      for (const CrossingPairMap& c : pm.crossing) {
        EXPECT_EQ(pm.binding[c.q_from], c.d_from);
        EXPECT_EQ(pm.binding[c.q_to], c.d_to);
      }
    }
  }
}


// ---------------------------------------------------------------------------
// LPM oracle: every binding in (V_F ∪ {NULL})^n of each fragment, kept when
// it satisfies Def. 5 directly. Shares no code with the enumerator's
// search: edges come from the fragment's triple list and Def. 3's label
// injectivity is an explicit search for distinct labels.

/// One local partial match as (binding, sign, crossing mappings).
using LpmKey =
    std::tuple<Binding, std::vector<bool>, std::vector<CrossingPairMap>>;

LpmKey KeyOf(const LocalPartialMatch& pm) {
  std::vector<bool> sign(pm.binding.size());
  for (size_t v = 0; v < sign.size(); ++v) sign[v] = (pm.sign >> v) & 1u;
  return {pm.binding, sign, pm.crossing};
}

std::vector<LpmKey> ReferenceLpms(const Fragment& f, const ResolvedQuery& rq) {
  const QueryGraph& q = *rq.query;
  const size_t n = q.num_vertices();
  if (rq.impossible) return {};
  const testing::PairLabels labels = testing::LabelsByPair(f.graph());
  std::vector<TermId> domain(f.internal_vertices().begin(),
                             f.internal_vertices().end());
  domain.insert(domain.end(), f.extended_vertices().begin(),
                f.extended_vertices().end());
  domain.push_back(kNullTerm);

  auto is_lpm = [&](const Binding& b, const std::vector<bool>& island) {
    // The island is non-empty and weakly connected through its own edges.
    std::vector<bool> reached(n, false);
    std::vector<QVertexId> stack;
    for (QVertexId v = 0; v < n && stack.empty(); ++v) {
      if (island[v]) {
        reached[v] = true;
        stack.push_back(v);
      }
    }
    if (stack.empty()) return false;
    while (!stack.empty()) {
      const QVertexId v = stack.back();
      stack.pop_back();
      for (const QueryEdge& e : q.edges()) {
        if (!island[e.from] || !island[e.to]) continue;
        if (e.from != v && e.to != v) continue;
        const QVertexId w = e.from == v ? e.to : e.from;
        if (!reached[w]) {
          reached[w] = true;
          stack.push_back(w);
        }
      }
    }
    // Every other bound vertex is extended and adjacent to the island, and
    // every bound constant is its own term.
    for (QVertexId v = 0; v < n; ++v) {
      if (island[v] != reached[v]) return false;
      if (b[v] == kNullTerm) continue;
      if (rq.vertex_term[v] != kNullTerm && b[v] != rq.vertex_term[v]) {
        return false;
      }
      if (island[v]) continue;
      if (!f.IsExtended(b[v])) return false;
      bool adjacent = false;
      for (const QueryEdge& e : q.edges()) {
        adjacent |= (e.from == v && island[e.to]) ||
                    (e.to == v && island[e.from]);
      }
      if (!adjacent) return false;
    }
    // Every edge touching the island exists, parallel edges on distinct
    // labels; at least one of them crosses.
    std::map<std::pair<QVertexId, QVertexId>, std::vector<QEdgeId>> groups;
    bool crosses = false;
    for (QEdgeId eid = 0; eid < q.num_edges(); ++eid) {
      const QueryEdge& e = q.edge(eid);
      if (!island[e.from] && !island[e.to]) continue;
      if (b[e.from] == kNullTerm || b[e.to] == kNullTerm) return false;
      groups[{e.from, e.to}].push_back(eid);
      crosses |= island[e.from] != island[e.to];
    }
    for (const auto& [pair, group] : groups) {
      auto it = labels.find({b[pair.first], b[pair.second]});
      if (it == labels.end() ||
          !testing::DistinctLabels(rq, group, it->second)) {
        return false;
      }
    }
    return crosses;
  };

  std::vector<LpmKey> out;
  std::vector<size_t> idx(n, 0);
  Binding b(n);
  std::vector<bool> island(n);
  while (true) {
    for (QVertexId v = 0; v < n; ++v) {
      b[v] = domain[idx[v]];
      island[v] = b[v] != kNullTerm && f.IsInternal(b[v]);
    }
    if (is_lpm(b, island)) {
      std::vector<CrossingPairMap> crossing;
      for (const QueryEdge& e : q.edges()) {
        if (island[e.from] != island[e.to]) {
          crossing.push_back({e.from, e.to, b[e.from], b[e.to]});
        }
      }
      std::sort(crossing.begin(), crossing.end());
      crossing.erase(std::unique(crossing.begin(), crossing.end()),
                     crossing.end());
      out.emplace_back(b, island, crossing);
    }
    size_t pos = 0;
    while (pos < n && ++idx[pos] == domain.size()) idx[pos++] = 0;
    if (pos == n) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

class LpmReference
    : public ::testing::TestWithParam<testing::ReferenceScenario> {};

TEST_P(LpmReference, EnumeratorFindsExactlyTheDefinition5Matches) {
  const testing::ReferenceScenario& s = GetParam();
  Rng rng(s.seed);
  auto dataset = testing::RandomDataset(rng, s.vertices, s.edges,
                                        s.predicates);
  QueryGraph query = testing::RandomConnectedQuery(rng, *dataset,
                                                   s.query_vertices,
                                                   s.query_edges);
  Partitioning partitioning = BuildPartitioning(
      *dataset, testing::RandomAssignment(rng, *dataset, 3), 3, "random");
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  for (const Fragment& f : partitioning.fragments()) {
    const std::vector<LpmKey> want = ReferenceLpms(f, rq);
    LocalStore store(&f.graph());
    // Both unit-order builders: orders change the search, not the set.
    for (bool use_statistics : {true, false}) {
      EnumerateOptions options;
      options.use_statistics = use_statistics;
      std::vector<LpmKey> got;
      for (const LocalPartialMatch& pm :
           EnumerateLocalPartialMatches(f, store, rq, options)) {
        got.push_back(KeyOf(pm));
      }
      std::sort(got.begin(), got.end());
      std::vector<LpmKey> missing, extra;
      std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                          std::back_inserter(missing));
      std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                          std::back_inserter(extra));
      EXPECT_EQ(got.size(), want.size());
      EXPECT_TRUE(missing.empty() && extra.empty())
          << missing.size() << " missing, " << extra.size()
          << " extra; fragment " << f.id() << ", use_statistics "
          << use_statistics << ", query " << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LpmReference,
    ::testing::ValuesIn(::gstored::testing::kReferenceScenarios));

}  // namespace
}  // namespace gstored
