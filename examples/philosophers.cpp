// The paper's running example (Fig. 1-3), end to end and annotated: the
// three-fragment philosopher graph, the "people influencing Crispin Wright"
// query, every local partial match with its serialization vector, the LEC
// features, the pruning decision, and the assembled matches. Reading this
// output next to the paper's Examples 4-8 is the fastest way to understand
// the system.

#include <cstdio>

#include "core/assembly.h"
#include "core/engine.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "tests/test_fixtures.h"

int main() {
  using namespace gstored;  // NOLINT — example brevity

  auto dataset = gstored::testing::BuildPaperDataset();
  Partitioning partitioning =
      gstored::testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = gstored::testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  const TermDict& dict = dataset->dict();

  std::printf("query: %s\n", query.ToString().c_str());
  std::printf("graph: %zu triples in %zu fragments, %zu crossing edges\n\n",
              dataset->graph().num_triples(), partitioning.num_fragments(),
              partitioning.num_crossing_edges());

  // Partial evaluation: local partial matches per fragment (Fig. 3).
  std::vector<LocalPartialMatch> all;
  for (const Fragment& fragment : partitioning.fragments()) {
    LocalStore store(&fragment.graph());
    auto lpms = EnumerateLocalPartialMatches(fragment, store, rq);
    std::printf("fragment F%d: %zu local partial matches\n",
                fragment.id() + 1, lpms.size());
    for (const LocalPartialMatch& pm : lpms) {
      std::printf("  %s  sign=%s\n", pm.ToString(dict).c_str(),
                  SignToString(pm.sign, query.num_vertices()).c_str());
    }
    all.insert(all.end(), lpms.begin(), lpms.end());
  }

  // LEC features (Example 6) and pruning (Example 7 / Alg. 2).
  LecFeatureSet features = ComputeLecFeatures(all);
  std::printf("\n%zu LEC features (from %zu LPMs):\n",
              features.features.size(), all.size());
  for (const LecFeature& f : features.features) {
    std::printf("  %s\n", f.ToString(dict, query.num_vertices()).c_str());
  }
  PruneResult prune =
      LecFeaturePruning(features.features, query.num_vertices());
  std::printf("\npruning keeps %zu of %zu features;\n",
              prune.surviving_features, features.features.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (!prune.survives[features.feature_of_lpm[i]]) {
      std::printf("  pruned: %s  (cannot reach an all-ones LECSign chain)\n",
                  all[i].ToString(dict).c_str());
    }
  }

  // Assembly (Alg. 3) and the final answer.
  std::vector<LocalPartialMatch> surviving;
  for (size_t i = 0; i < all.size(); ++i) {
    if (prune.survives[features.feature_of_lpm[i]]) surviving.push_back(all[i]);
  }
  AssemblyStats asm_stats;
  std::vector<Binding> crossing =
      LecAssembly(surviving, query.num_vertices(), &asm_stats);
  std::printf("\nassembled %zu crossing matches (%zu join attempts):\n",
              crossing.size(), asm_stats.join_attempts);
  for (const Binding& m : crossing) {
    std::printf("  ?p2=%s ?t=%s ?l=%s\n", dict.lexical(m[0]).c_str(),
                dict.lexical(m[1]).c_str(), dict.lexical(m[3]).c_str());
  }

  // The engine wraps all of the above (plus local matches and Alg. 4).
  DistributedEngine engine(&partitioning);
  QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
  std::printf("\nfull engine: %zu matches in %.2f ms\n",
              outcome.matches.size(), outcome.stats.total_time_ms);
  return 0;
}
