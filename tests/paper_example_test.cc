// End-to-end validation of the paper's running example (Fig. 1-3 and
// Examples 4-8): local partial matches, LEC features, groups, pruning,
// assembly, and the full engine, checked against the published vectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"

namespace gstored {
namespace {

using ::gstored::testing::BuildPaperDataset;
using ::gstored::testing::BuildPaperPartitioning;
using ::gstored::testing::BuildPaperQuery;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : dataset_(BuildPaperDataset()),
        partitioning_(BuildPaperPartitioning(*dataset_)),
        query_(BuildPaperQuery()),
        rq_(ResolveQuery(query_, dataset_->dict())) {}

  TermId Id(const char* lexical) const {
    TermId id = dataset_->dict().Lookup(lexical);
    EXPECT_NE(id, kNullTerm) << lexical;
    return id;
  }

  /// Serialization vector in paper order [f(v1),...,f(v5)]; kNullTerm where
  /// unmatched.
  Binding Vec(TermId v1, TermId v2, TermId v3, TermId v4, TermId v5) const {
    return {v1, v2, v3, v4, v5};
  }

  std::vector<LocalPartialMatch> LpmsOf(int fragment) const {
    LocalStore store(&partitioning_.fragments()[fragment].graph());
    return EnumerateLocalPartialMatches(partitioning_.fragments()[fragment],
                                        store, rq_);
  }

  static std::set<Binding> BindingsOf(
      const std::vector<LocalPartialMatch>& lpms) {
    std::set<Binding> out;
    for (const LocalPartialMatch& pm : lpms) out.insert(pm.binding);
    return out;
  }

  std::unique_ptr<Dataset> dataset_;
  Partitioning partitioning_;
  QueryGraph query_;
  ResolvedQuery rq_;
};

TEST_F(PaperExampleTest, DatasetShape) {
  EXPECT_EQ(dataset_->graph().num_triples(), 19u);
  EXPECT_TRUE(query_.IsConnected());
  EXPECT_FALSE(query_.IsStar());
  EXPECT_TRUE(query_.HasSelectiveTriple());
}

TEST_F(PaperExampleTest, FragmentStructureMatchesExample1) {
  const Fragment& f1 = partitioning_.fragments()[0];
  // Ve1 = {006, 012} and Ec1 = {001->006, 006->005, 001->012}.
  EXPECT_EQ(f1.extended_vertices().size(), 2u);
  EXPECT_TRUE(f1.IsExtended(Id(testing::kPhi2)));
  EXPECT_TRUE(f1.IsExtended(Id(testing::kPhi3)));
  EXPECT_EQ(f1.crossing_edges().size(), 3u);
  EXPECT_TRUE(f1.IsCrossingTriple(Id(testing::kPhi1),
                                  Id(testing::kInfluencedBy),
                                  Id(testing::kPhi2)));
  EXPECT_TRUE(f1.IsCrossingTriple(Id(testing::kPhi2),
                                  Id(testing::kMainInterest),
                                  Id(testing::kInt1)));
  EXPECT_TRUE(f1.IsCrossingTriple(Id(testing::kPhi1),
                                  Id(testing::kInfluencedBy),
                                  Id(testing::kPhi3)));
  EXPECT_EQ(partitioning_.num_crossing_edges(), 5u);
}

TEST_F(PaperExampleTest, LocalPartialMatchesMatchFigure3) {
  const TermId n = kNullTerm;
  TermId phi1 = Id(testing::kPhi1), phi2 = Id(testing::kPhi2),
         phi3 = Id(testing::kPhi3), phi4 = Id(testing::kPhi4),
         int1 = Id(testing::kInt1), int2 = Id(testing::kInt2),
         int3 = Id(testing::kInt3), int4 = Id(testing::kInt4),
         crispin = Id(testing::kCrispin), phillang = Id(testing::kPhilLang),
         metaphysics = Id(testing::kMetaphysics),
         phillogic = Id(testing::kPhilLogic), logic = Id(testing::kLogic);

  // F1: PM11, PM21, PM31.
  std::set<Binding> expected_f1 = {
      Vec(phi2, n, phi1, n, crispin),
      Vec(phi3, n, phi1, n, crispin),
      Vec(phi2, int1, n, phillang, n),
  };
  EXPECT_EQ(BindingsOf(LpmsOf(0)), expected_f1);

  // F2: PM12, PM22, PM32.
  std::set<Binding> expected_f2 = {
      Vec(phi2, int2, phi1, metaphysics, n),
      Vec(phi2, int3, phi1, phillogic, n),
      Vec(phi2, int1, phi1, n, n),
  };
  EXPECT_EQ(BindingsOf(LpmsOf(1)), expected_f2);

  // F3: PM13, PM23.
  std::set<Binding> expected_f3 = {
      Vec(phi3, int4, phi1, logic, n),
      Vec(phi4, int4, n, logic, n),
  };
  EXPECT_EQ(BindingsOf(LpmsOf(2)), expected_f3);
}

TEST_F(PaperExampleTest, LecSignsMatchExample6) {
  auto lpms = LpmsOf(1);  // F2
  for (const LocalPartialMatch& pm : lpms) {
    if (pm.binding[1] == Id(testing::kInt2)) {
      EXPECT_EQ(SignToString(pm.sign, 5), "[11010]");  // PM12
      EXPECT_EQ(pm.crossing.size(), 1u);
    } else if (pm.binding[1] == Id(testing::kInt1)) {
      EXPECT_EQ(SignToString(pm.sign, 5), "[10000]");  // PM32
      EXPECT_EQ(pm.crossing.size(), 2u);
    }
  }
}

TEST_F(PaperExampleTest, SevenLecFeaturesAsInExample6) {
  std::vector<LocalPartialMatch> all;
  for (int f = 0; f < 3; ++f) {
    auto lpms = LpmsOf(f);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }
  ASSERT_EQ(all.size(), 8u);
  LecFeatureSet set = ComputeLecFeatures(all);
  EXPECT_EQ(set.features.size(), 7u);  // PM12 and PM22 share one feature

  // PM12 and PM22 (F2, interest bound to Int2 / Int3) map to one feature.
  size_t pm12_idx = SIZE_MAX, pm22_idx = SIZE_MAX;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].fragment == 1 && all[i].binding[1] == Id(testing::kInt2)) {
      pm12_idx = i;
    }
    if (all[i].fragment == 1 && all[i].binding[1] == Id(testing::kInt3)) {
      pm22_idx = i;
    }
  }
  ASSERT_NE(pm12_idx, SIZE_MAX);
  ASSERT_NE(pm22_idx, SIZE_MAX);
  EXPECT_EQ(set.feature_of_lpm[pm12_idx], set.feature_of_lpm[pm22_idx]);
}

TEST_F(PaperExampleTest, PruningDropsOnlyPm23) {
  std::vector<LocalPartialMatch> all;
  for (int f = 0; f < 3; ++f) {
    auto lpms = LpmsOf(f);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }
  LecFeatureSet set = ComputeLecFeatures(all);
  PruneResult prune = LecFeaturePruning(set.features, query_.num_vertices());
  EXPECT_FALSE(prune.bailed_out);
  EXPECT_EQ(prune.surviving_features, 6u);

  // Exactly PM23 ([014, 013, NULL, 017, NULL], Example 7's P5) is pruned.
  for (size_t i = 0; i < all.size(); ++i) {
    bool survives = prune.survives[set.feature_of_lpm[i]];
    bool is_pm23 = all[i].binding[0] == Id(testing::kPhi4);
    EXPECT_EQ(survives, !is_pm23) << "lpm " << i;
  }
}

TEST_F(PaperExampleTest, AssemblyProducesTheFourCrossingMatches) {
  std::vector<LocalPartialMatch> all;
  for (int f = 0; f < 3; ++f) {
    auto lpms = LpmsOf(f);
    all.insert(all.end(), lpms.begin(), lpms.end());
  }
  AssemblyStats stats;
  std::vector<Binding> crossing =
      LecAssembly(all, query_.num_vertices(), &stats);
  EXPECT_EQ(stats.binding_conflicts, 0u);

  std::set<Binding> expected = {
      Vec(Id(testing::kPhi2), Id(testing::kInt2), Id(testing::kPhi1),
          Id(testing::kMetaphysics), Id(testing::kCrispin)),
      Vec(Id(testing::kPhi2), Id(testing::kInt3), Id(testing::kPhi1),
          Id(testing::kPhilLogic), Id(testing::kCrispin)),
      Vec(Id(testing::kPhi2), Id(testing::kInt1), Id(testing::kPhi1),
          Id(testing::kPhilLang), Id(testing::kCrispin)),
      Vec(Id(testing::kPhi3), Id(testing::kInt4), Id(testing::kPhi1),
          Id(testing::kLogic), Id(testing::kCrispin)),
  };
  EXPECT_EQ(std::set<Binding>(crossing.begin(), crossing.end()), expected);

  // The basic worklist assembly agrees but explores a larger join space.
  AssemblyStats basic_stats;
  std::vector<Binding> basic =
      BasicAssembly(all, query_.num_vertices(), &basic_stats);
  EXPECT_EQ(std::set<Binding>(basic.begin(), basic.end()), expected);
  EXPECT_GE(basic_stats.join_attempts, stats.join_attempts);
}

TEST_F(PaperExampleTest, EngineAgreesWithCentralizedOracleInAllModes) {
  LocalStore oracle_store(&dataset_->graph());
  std::vector<Binding> oracle = MatchQuery(oracle_store, rq_);
  DedupBindings(&oracle);
  EXPECT_EQ(oracle.size(), 4u);

  DistributedEngine engine(&partitioning_);
  for (EngineMode mode :
       {EngineMode::kBasic, EngineMode::kLecAssembly, EngineMode::kLecPruning,
        EngineMode::kFull}) {
    QueryOutcome outcome = engine.Run({query_, mode});
    const QueryStats& stats = outcome.stats;
    EXPECT_EQ(outcome.matches, oracle) << EngineModeName(mode);
    EXPECT_EQ(stats.num_matches, 4u) << EngineModeName(mode);
    EXPECT_EQ(stats.assembly.binding_conflicts, 0u) << EngineModeName(mode);
    if (mode == EngineMode::kFull) {
      // Algorithm 4's candidate filter keeps PM23 from ever being generated
      // (Phi4 is not an internal candidate of ?p2 at any site), so full mode
      // sees one fewer LPM and feature than Examples 4-6.
      EXPECT_EQ(stats.num_lpms, 7u);
      EXPECT_EQ(stats.num_features, 6u);
      EXPECT_EQ(stats.num_lpms_shipped, 7u);
    } else {
      EXPECT_EQ(stats.num_lpms, 8u) << EngineModeName(mode);
    }
    if (mode == EngineMode::kLecPruning) {
      EXPECT_EQ(stats.num_features, 7u);
      EXPECT_EQ(stats.num_lpms_shipped, 7u);  // PM23 pruned by Alg. 2
    }
  }
}

TEST_F(PaperExampleTest, StarQueryTakesTheLocalFastPath) {
  QueryGraph star;
  star.AddEdge("?p", testing::kName, "?n");
  star.AddEdge("?p", testing::kBirthDate, "?d");
  ASSERT_TRUE(star.IsStar());

  DistributedEngine engine(&partitioning_);
  QueryOutcome star_outcome = engine.Run({star, EngineMode::kFull});
  const QueryStats& stats = star_outcome.stats;
  const std::vector<Binding>& result = star_outcome.matches;
  EXPECT_TRUE(stats.star_shortcut);
  EXPECT_EQ(stats.num_lpms, 0u);
  EXPECT_EQ(stats.lec_shipment_bytes, 0u);
  EXPECT_EQ(stats.candidate_shipment_bytes, 0u);
  // Phi1 (Crispin Wright) and Phi3 (Wittgenstein) have name + birthDate.
  EXPECT_EQ(result.size(), 2u);

  // Star results agree with the centralized oracle.
  LocalStore oracle_store(&dataset_->graph());
  ResolvedQuery star_rq = ResolveQuery(star, dataset_->dict());
  std::vector<Binding> oracle = MatchQuery(oracle_store, star_rq);
  DedupBindings(&oracle);
  EXPECT_EQ(result, oracle);
}

}  // namespace
}  // namespace gstored
