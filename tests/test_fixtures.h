#ifndef GSTORED_TESTS_TEST_FIXTURES_H_
#define GSTORED_TESTS_TEST_FIXTURES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/local_partial_match.h"
#include "partition/partitioners.h"
#include "partition/partitioning.h"
#include "rdf/dataset.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "util/rng.h"

namespace gstored::testing {

/// IRIs used by the paper-example fixture (Fig. 1). The vertex comments give
/// the paper's numeric ids.
inline constexpr const char* kPhi1 = "<http://ex.org/s1/Phi1>";  // 001
inline constexpr const char* kInt1 = "<http://ex.org/s1/Int1>";  // 005
inline constexpr const char* kPhi2 = "<http://ex.org/s2/Phi2>";  // 006
inline constexpr const char* kInt2 = "<http://ex.org/s2/Int2>";  // 008
inline constexpr const char* kInt3 = "<http://ex.org/s2/Int3>";  // 010
inline constexpr const char* kPhi4 = "<http://ex.org/s2/Phi4>";  // 014
inline constexpr const char* kPhi3 = "<http://ex.org/s3/Phi3>";  // 012
inline constexpr const char* kInt4 = "<http://ex.org/s3/Int4>";  // 013
inline constexpr const char* kPla1 = "<http://ex.org/s3/Pla1>";  // 019

inline constexpr const char* kName = "<http://ex.org/p/name>";
inline constexpr const char* kLabel = "<http://ex.org/p/label>";
inline constexpr const char* kInfluencedBy = "<http://ex.org/p/influencedBy>";
inline constexpr const char* kMainInterest = "<http://ex.org/p/mainInterest>";
inline constexpr const char* kBirthDate = "<http://ex.org/p/birthDate>";
inline constexpr const char* kBirthPlace = "<http://ex.org/p/birthPlace>";

inline constexpr const char* kCrispin = "\"Crispin Wright\"@en";        // 003
inline constexpr const char* kPhilLang =
    "\"Philosophy of language\"@en";                                    // 004
inline constexpr const char* kMetaphysics = "\"Metaphysics\"@en";       // 009
inline constexpr const char* kPhilLogic =
    "\"Philosophy of logic\"@en";                                       // 011
inline constexpr const char* kLogic = "\"Logic\"@en";                   // 017

/// Builds the Fig. 1 RDF graph (finalized).
std::unique_ptr<Dataset> BuildPaperDataset();

/// The Fig. 1 three-way fragmentation: F1 owns the s1 entities and their
/// literals, F2 the s2 entities, F3 the s3 entities.
Partitioning BuildPaperPartitioning(const Dataset& dataset);

/// The Fig. 2 query: people influencing Crispin Wright and their interests.
/// Vertex order is v1=?p2, v2=?t, v3=?p1, v4=?l, v5="Crispin Wright"@en,
/// matching the paper's serialization vectors.
QueryGraph BuildPaperQuery();

/// Generates a random RDF dataset: `num_vertices` entity vertices, edges
/// drawn uniformly with `num_edges` attempts over `num_predicates`
/// predicates. Suitable for oracle-comparison property tests.
std::unique_ptr<Dataset> RandomDataset(Rng& rng, size_t num_vertices,
                                       size_t num_edges,
                                       size_t num_predicates);

/// Generates a random connected BGP query with `num_vertices` query vertices
/// and `num_edges >= num_vertices - 1` triple patterns. With probability
/// `constant_prob`, a query vertex is a constant sampled from the dataset;
/// predicates are constants with probability `pred_constant_prob` (variables
/// otherwise). An extra (non-spanning-tree) edge never repeats an existing
/// (from, constant predicate, to) pattern, which would make the query
/// statically impossible. The query depends on `rng`'s state alone: equal
/// seeds give equal query text in any process.
QueryGraph RandomConnectedQuery(Rng& rng, const Dataset& dataset,
                                size_t num_vertices, size_t num_edges,
                                double constant_prob = 0.3,
                                double pred_constant_prob = 0.85);

/// A query drawn around a known match: `pivot[v]` is the data vertex query
/// vertex v takes in that match, so every correct answer contains it.
struct Pivoted {
  QueryGraph query;
  Binding pivot;
};

/// Pivoted query synthesis (Rigger & Su, OSDI 2020) for BGPs: draws a
/// connected random walk of up to `num_triples` of the data's triples, no
/// (s, p, o) twice, and turns it into a query. Each distinct walk vertex
/// becomes one query vertex, a constant with probability `constant_prob` and
/// a variable otherwise (at least one is a variable); each triple's
/// predicate stays constant with probability `pred_constant_prob`, else it
/// becomes a fresh predicate variable. A self-loop triple gives a self-loop
/// pattern. The walk itself is a match of the query (Def. 3: distinct
/// triples on one vertex pair carry distinct labels), so it is the pivot.
/// The query depends on `rng`'s state alone.
Pivoted PivotedQuery(Rng& rng, const Dataset& dataset, size_t num_triples,
                     double constant_prob = 0.3,
                     double pred_constant_prob = 0.7);

/// Data edge labels by directed (subject, object) pair, read from a graph's
/// raw triple list: the brute-force oracles' view of the data, which shares
/// no code with the CSR indexes or the matcher.
using PairLabels = std::map<std::pair<TermId, TermId>, std::set<TermId>>;
PairLabels LabelsByPair(const RdfGraph& graph);

/// Def. 3's label injectivity by explicit search: true when the query edges
/// of `group`, all on one directed pair, can take pairwise-distinct labels
/// from `labels`, each constant predicate its own label.
bool DistinctLabels(const ResolvedQuery& rq, const std::vector<QEdgeId>& group,
                    const std::set<TermId>& labels);

/// Produces a random vertex assignment over `k` fragments.
VertexAssignment RandomAssignment(Rng& rng, const Dataset& dataset, int k);

/// Enumerates every fragment's local partial matches with default (serial)
/// options and concatenates them in fragment order — the shared setup of
/// the assembly/pruning oracle and determinism suites.
std::vector<LocalPartialMatch> EnumerateAllLpms(
    const Partitioning& partitioning, const ResolvedQuery& rq);

/// One randomized oracle-comparison scenario: a seeded random dataset plus a
/// random connected query over it. Kept small because several consumers
/// compare against O(|V|^n) brute force.
struct ReferenceScenario {
  uint64_t seed;
  size_t vertices;
  size_t edges;
  size_t predicates;
  size_t query_vertices;
  size_t query_edges;
};

/// The ten standard scenarios shared by the matcher-reference,
/// parallel-determinism and ordering-quality suites. Seeds sweep graph
/// density, parallel edges (few vertices, many edge attempts) and query
/// shapes.
inline constexpr ReferenceScenario kReferenceScenarios[] = {
    {1, 10, 30, 3, 2, 2},  //
    {2, 10, 40, 2, 3, 3},  //
    {3, 12, 25, 4, 3, 4},  //
    {4, 8, 60, 2, 3, 5},   // dense, parallel
    {5, 6, 40, 3, 4, 6},   // multi-edge heavy
    {6, 14, 20, 5, 3, 3},  // sparse
    {7, 9, 50, 1, 3, 4},   // single predicate
    {8, 8, 35, 3, 4, 4},   //
    {9, 11, 45, 4, 3, 5},  //
    {10, 7, 30, 2, 4, 5},
};

}  // namespace gstored::testing

#endif  // GSTORED_TESTS_TEST_FIXTURES_H_
