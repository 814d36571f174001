// Robustness/failure-injection tests: the parsers and wire decoders must
// reject (never crash on) mutated and adversarial inputs, and the engine
// behaves on degenerate datasets (empty, single-triple, literal-heavy).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/lec_feature.h"
#include "net/wire.h"
#include "partition/partitioners.h"
#include "rdf/dataset.h"
#include "sparql/compound.h"
#include "sparql/parser.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

/// Random single-character mutations of a valid input. Every mutation must
/// either parse cleanly or fail with a Status — never crash or hang.
class ParserFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzSweep, SparqlParserNeverCrashesOnMutations) {
  const std::string base =
      "SELECT ?a ?b WHERE { ?a <http://x/p> ?b . ?b <http://x/q> \"v\"@en . "
      "?a <http://x/r> \"1\"^^<http://x/int> . }";
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0: mutated[pos] = static_cast<char>(32 + rng.Uniform(95)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1,
                                static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    auto result = ParseSparql(mutated);       // must not crash
    auto compound = ParseCompoundSparql(mutated);
    (void)result;
    (void)compound;
  }
}

TEST_P(ParserFuzzSweep, NTriplesParserNeverCrashesOnMutations) {
  const std::string base =
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "<http://x/s> <http://x/n> \"some text\"@en .\n"
      "_:b <http://x/p> \"42\"^^<http://x/int> .\n";
  Rng rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    Dataset data;
    auto status = ParseNTriples(mutated, &data);  // must not crash
    (void)status;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ParserAdversarialTest, PathologicalInputsRejectedCleanly) {
  EXPECT_FALSE(ParseSparql(std::string(10000, '{')).ok());
  EXPECT_FALSE(ParseSparql("SELECT " + std::string(5000, '?')).ok());
  EXPECT_FALSE(ParseSparql("SELECT * WHERE { " + std::string(100, '"')).ok());
  EXPECT_FALSE(ParseCompoundSparql(
                   "SELECT * WHERE { ?a <p> ?b } UNION").ok());
  Dataset data;
  EXPECT_FALSE(ParseNTriples(std::string(2000, '<'), &data).ok());
  // Deep but balanced compound nesting must terminate.
  std::string nested = "SELECT * WHERE ";
  for (int i = 0; i < 50; ++i) nested += "{";
  nested += " ?a <http://x/p> ?b ";
  for (int i = 0; i < 50; ++i) nested += "}";
  auto result = ParseCompoundSparql(nested);
  (void)result;  // accept or reject, but terminate

  // A 21-vertex path is past what LPM enumeration takes: a parse error that
  // names the 20-vertex limit, also as a compound branch, never an abort
  // inside the engine. A 21-vertex star still parses (stars never
  // enumerate LPMs).
  std::string path = "SELECT * WHERE {";
  std::string star = "SELECT * WHERE {";
  for (int i = 0; i < 20; ++i) {
    path += " ?v" + std::to_string(i) +
            " <http://lubm.org/ont#subOrganizationOf> ?v" +
            std::to_string(i + 1) + " .";
    star += " ?c <http://x/p> ?v" + std::to_string(i) + " .";
  }
  path += " }";
  star += " }";
  Result<QueryGraph> long_path = ParseSparql(path);
  ASSERT_FALSE(long_path.ok());
  EXPECT_NE(long_path.status().message().find("20"), std::string::npos)
      << long_path.status().ToString();
  EXPECT_FALSE(ParseCompoundSparql(path).ok());
  Result<QueryGraph> wide_star = ParseSparql(star);
  ASSERT_TRUE(wide_star.ok()) << wide_star.status().ToString();
  EXPECT_EQ(wide_star->num_vertices(), 21u);
  EXPECT_TRUE(wide_star->IsStar());
}

TEST(DegenerateDatasetTest, EmptyDatasetQueries) {
  Dataset empty;
  empty.Finalize();
  Partitioning p = HashPartitioner().Partition(empty, 3);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?a", "<http://x/p>", "?b");
  EXPECT_TRUE(engine.Run({q, EngineMode::kFull}).matches.empty());
}

TEST(DegenerateDatasetTest, SingleTripleAcrossFragments) {
  Dataset data;
  data.AddTripleLexical("<http://x/a>", "<http://x/p>", "<http://x/b>");
  data.Finalize();
  // Force the two endpoints apart.
  VertexAssignment owner;
  owner[data.dict().Lookup("<http://x/a>")] = 0;
  owner[data.dict().Lookup("<http://x/b>")] = 1;
  Partitioning p = BuildPartitioning(data, owner, 2, "manual");
  EXPECT_EQ(p.num_crossing_edges(), 1u);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?a", "<http://x/p>", "?b");
  // One edge query is a star: answered locally via the replica.
  QueryOutcome outcome = engine.Run({q, EngineMode::kFull});
  ASSERT_EQ(outcome.matches.size(), 1u);
  EXPECT_TRUE(outcome.stats.star_shortcut);
}

// ---------------------------------------------------------------------------
// Wire-codec robustness: the transport decoders must be total functions of
// the payload bytes. Any input — round-tripped, truncated, extended, or
// byte-mutated — either decodes or returns a Status; never a crash, hang, or
// unbounded allocation.
// ---------------------------------------------------------------------------

/// One valid payload of each wire message type plus its decoder, reduced to
/// an ok/error signal for the sweeps below.
struct WirePayload {
  std::string name;
  std::vector<uint8_t> bytes;
  std::function<bool(const std::vector<uint8_t>&)> decode;
};

/// A filter-set entry holding `ids` as given (ids form), cut against `bits`.
FilterEntry IdEntry(QVertexId var, std::vector<TermId> ids,
                    size_t bits = 1024) {
  FilterEntry entry;
  entry.var = var;
  entry.bits = bits;
  entry.ids = std::move(ids);
  return entry;
}

/// A filter-set entry holding the `bits`-bit vector of `ids`.
FilterEntry VectorEntry(QVertexId var, const std::vector<TermId>& ids,
                        size_t bits = 256) {
  FilterEntry entry;
  entry.var = var;
  entry.bits = bits;
  entry.vector.emplace(bits);
  for (TermId id : ids) entry.vector->Insert(id);
  return entry;
}

/// Ids v, v + 3, ... below 40: 14 or 13 of them, past what a 256-bit
/// vector's id form may hold (7), so they go as a vector.
std::vector<TermId> SteppedIds(uint32_t v) {
  std::vector<TermId> ids;
  for (TermId id = v; id < 40; id += 3) ids.push_back(id);
  return ids;
}

/// The variables of the corpus' filter set: two vector entries around an
/// id entry.
constexpr QVertexId kCorpusVariables[] = {0, 2, 3};

FilterSet CorpusFilterSet() {
  return {VectorEntry(0, SteppedIds(0)), IdEntry(2, {2, 9, 40}, 256),
          VectorEntry(3, SteppedIds(3))};
}

/// The Fig. 2 query, alive for the whole process: the feature and LPM
/// decoders of the corpus read it on every call.
const QueryGraph& PaperQuery() {
  static const QueryGraph* query = new QueryGraph(testing::BuildPaperQuery());
  return *query;
}

/// The Fig. 2 query's LPMs in the Fig. 1 fragment F1 (id 0): a feature or
/// LPM batch carries one site's items, and its decoder takes their fragment.
std::vector<LocalPartialMatch> PaperLpmsOfF1(const Dataset& dataset) {
  Partitioning partitioning = testing::BuildPaperPartitioning(dataset);
  const Fragment& f1 = partitioning.fragments()[0];
  LocalStore store(&f1.graph());
  return EnumerateLocalPartialMatches(
      f1, store, ResolveQuery(PaperQuery(), dataset.dict()));
}

std::vector<WirePayload> BuildWireCorpus() {
  auto dataset = testing::BuildPaperDataset();
  std::vector<LocalPartialMatch> lpms = PaperLpmsOfF1(*dataset);
  LecFeatureSet lec = ComputeLecFeatures(lpms);

  std::vector<Binding> matches = {{1, 2, 3, kNullTerm, 5},
                                  {7, 7, kNullTerm, 9, 0}};

  std::vector<WirePayload> corpus;
  corpus.push_back(
      {"bitmap", EncodeBitmap({true, false, true, true, false}),
       [](const std::vector<uint8_t>& b) { return DecodeBitmap(b).ok(); }});
  corpus.push_back(
      {"filter_set", EncodeFilterSet(CorpusFilterSet()),
       [](const std::vector<uint8_t>& b) {
         return DecodeFilterSet(b, kCorpusVariables).ok();
       }});
  corpus.push_back(
      {"match_batch", EncodeMatchBatch(lpms.size(), 5, matches),
       [](const std::vector<uint8_t>& b) { return DecodeMatchBatch(b).ok(); }});
  const auto n = static_cast<uint32_t>(PaperQuery().num_vertices());
  corpus.push_back(
      {"lec_feature_batch", EncodeLecFeatureBatch(lec.features, n),
       [](const std::vector<uint8_t>& b) {
         return DecodeLecFeatureBatch(b, PaperQuery(), 0).ok();
       }});
  std::vector<size_t> all(lpms.size());
  std::iota(all.begin(), all.end(), size_t{0});
  corpus.push_back({"lpm_batch", EncodeLpmBatch(lpms, all),
                    [](const std::vector<uint8_t>& b) {
                      return DecodeLpmBatch(b, PaperQuery(), 0).ok();
                    }});
  corpus.push_back(
      {"done_marker", EncodeDoneMarker(7),
       [](const std::vector<uint8_t>& b) { return DecodeDoneMarker(b).ok(); }});
  return corpus;
}

TEST(WireCodecTest, RoundTripsPreserveEveryPayloadType) {
  auto dataset = testing::BuildPaperDataset();
  std::vector<LocalPartialMatch> lpms = PaperLpmsOfF1(*dataset);
  ASSERT_GE(lpms.size(), 3u);
  LecFeatureSet lec = ComputeLecFeatures(lpms);

  std::vector<bool> bits = {true, false, true, true, false};
  auto bitmap = DecodeBitmap(EncodeBitmap(bits));
  ASSERT_TRUE(bitmap.ok());
  EXPECT_EQ(*bitmap, bits);

  const FilterSet filters = CorpusFilterSet();
  auto filt = DecodeFilterSet(EncodeFilterSet(filters), kCorpusVariables);
  ASSERT_TRUE(filt.ok());
  ASSERT_EQ(filt->size(), filters.size());
  for (size_t i = 0; i < filters.size(); ++i) {
    EXPECT_EQ((*filt)[i].var, filters[i].var);
    EXPECT_EQ((*filt)[i].bits, filters[i].bits);
    EXPECT_EQ((*filt)[i].ids, filters[i].ids);
    ASSERT_EQ((*filt)[i].vector.has_value(), filters[i].vector.has_value());
    if (filters[i].vector) {
      EXPECT_EQ((*filt)[i].vector->words(), filters[i].vector->words());
    }
  }

  std::vector<Binding> matches = {{1, 2, 3, kNullTerm, 5},
                                  {7, 7, kNullTerm, 9, 0}};
  auto batch = DecodeMatchBatch(EncodeMatchBatch(lpms.size(), 5, matches));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_lpms, lpms.size());
  EXPECT_EQ(batch->width, 5u);
  EXPECT_EQ(batch->matches, matches);

  const QueryGraph& query = PaperQuery();
  const auto n = static_cast<uint32_t>(query.num_vertices());
  auto feats =
      DecodeLecFeatureBatch(EncodeLecFeatureBatch(lec.features, n), query, 0);
  ASSERT_TRUE(feats.ok());
  EXPECT_EQ(*feats, lec.features);

  std::vector<size_t> indices(lpms.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  auto all = DecodeLpmBatch(EncodeLpmBatch(lpms, indices), query, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, lpms);

  // A batch carries the indexed LPMs in index order.
  indices = {2, 0};
  auto sub = DecodeLpmBatch(EncodeLpmBatch(lpms, indices), query, 0);
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->size(), 2u);
  EXPECT_EQ((*sub)[0], lpms[2]);
  EXPECT_EQ((*sub)[1], lpms[0]);

  auto done = DecodeDoneMarker(EncodeDoneMarker(7));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, 7u);
}

/// Encodes and decodes every site's LEC features and LPMs of `query` over
/// `partitioning`: each batch must decode to exactly what was encoded,
/// fragment included. Returns the number of LPMs round-tripped.
size_t ExpectSiteRowsRoundTrip(const Dataset& dataset,
                               const Partitioning& partitioning,
                               const QueryGraph& query) {
  const ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  const auto n = static_cast<uint32_t>(query.num_vertices());
  size_t round_tripped = 0;
  for (const Fragment& fragment : partitioning.fragments()) {
    SCOPED_TRACE(::testing::Message() << "fragment=" << fragment.id());
    LocalStore store(&fragment.graph());
    const std::vector<LocalPartialMatch> lpms =
        EnumerateLocalPartialMatches(fragment, store, rq);
    const std::vector<LecFeature> features = ComputeLecFeatures(lpms).features;
    auto feats = DecodeLecFeatureBatch(EncodeLecFeatureBatch(features, n),
                                       query, fragment.id());
    EXPECT_TRUE(feats.ok());
    if (feats.ok()) EXPECT_EQ(*feats, features);
    std::vector<size_t> all(lpms.size());
    std::iota(all.begin(), all.end(), size_t{0});
    auto decoded =
        DecodeLpmBatch(EncodeLpmBatch(lpms, all), query, fragment.id());
    EXPECT_TRUE(decoded.ok());
    if (decoded.ok()) EXPECT_EQ(*decoded, lpms);
    round_tripped += lpms.size();
  }
  return round_tripped;
}

/// testing::RandomDataset's triples, self-loops kept: `num_edges` draws of
/// a uniform subject, predicate and object over few vertices, so a walk of
/// the data meets self-loops, parallel edges and cycles.
std::unique_ptr<Dataset> LoopyDataset(Rng& rng, size_t num_vertices,
                                      size_t num_edges,
                                      size_t num_predicates) {
  auto dataset = std::make_unique<Dataset>();
  auto name = [](const char* kind, size_t i) {
    return "<http://rnd.org/" + std::string(kind) + std::to_string(i) + ">";
  };
  for (size_t i = 0; i < num_edges; ++i) {
    const size_t s = rng.Uniform(num_vertices);
    const size_t o = rng.Uniform(num_vertices);
    dataset->AddTripleLexical(name("v", s),
                              name("p", rng.Uniform(num_predicates)),
                              name("v", o));
  }
  dataset->Finalize();
  return dataset;
}

TEST(WireCodecTest, RowsRoundTripOnAnswerBearingQueries) {
  // LUBM-3's LQ1-LQ7 over 4 hash sites.
  LubmConfig config;
  config.universities = 3;
  Workload lubm = MakeLubmWorkload(config);
  Partitioning lubm_sites = HashPartitioner().Partition(*lubm.dataset, 4);
  size_t lubm_lpms = 0;
  for (const BenchmarkQuery& bq : lubm.queries) {
    SCOPED_TRACE(bq.name);
    lubm_lpms += ExpectSiteRowsRoundTrip(*lubm.dataset, lubm_sites, bq.query);
  }
  EXPECT_GT(lubm_lpms, 0u);

  // Pivoted queries have answers, so their items cross fragments: 24 of
  // them over 3-6 hash and random fragments. The scenarios that ship LPMs
  // must cover cycles, parallel edges, self-loops and variable predicates,
  // where a row's ids and the derived mappings are easiest to get wrong.
  size_t with_lpms = 0;
  size_t cyclic = 0;
  size_t parallel = 0;
  size_t self_loops = 0;
  size_t variable_predicates = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    auto dataset = LoopyDataset(rng, 8 + seed % 9, 40 + (seed * 13) % 60,
                                1 + seed % 3);
    testing::Pivoted pivoted =
        testing::PivotedQuery(rng, *dataset, 3 + seed % 4);
    const QueryGraph& query = pivoted.query;
    const int k = 3 + static_cast<int>(seed % 4);
    Partitioning partitioning =
        seed % 2 == 0
            ? HashPartitioner().Partition(*dataset, k)
            : BuildPartitioning(*dataset,
                                testing::RandomAssignment(rng, *dataset, k), k,
                                "random");
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << k
                                      << " query=" << query.ToString());
    if (ExpectSiteRowsRoundTrip(*dataset, partitioning, query) == 0) continue;
    ++with_lpms;
    std::set<std::pair<QVertexId, QVertexId>> pairs;
    bool has_parallel = false;
    bool has_loop = false;
    bool has_variable = false;
    for (const QueryEdge& e : query.edges()) {
      has_loop = has_loop || e.from == e.to;
      has_variable = has_variable || e.pred_is_variable;
      if (e.from != e.to && !pairs.insert(std::minmax(e.from, e.to)).second) {
        has_parallel = true;
      }
    }
    // The query is connected, so as many distinct vertex pairs as vertices
    // close a cycle through three or more of them.
    if (pairs.size() >= query.num_vertices()) ++cyclic;
    if (has_parallel) ++parallel;
    if (has_loop) ++self_loops;
    if (has_variable) ++variable_predicates;
  }
  EXPECT_GE(with_lpms, 12u);
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(parallel, 0u);
  EXPECT_GT(self_loops, 0u);
  EXPECT_GT(variable_predicates, 0u);
}

TEST(WireCodecTest, TruncatedAndExtendedPayloadsAreRejected) {
  Rng rng(99);
  for (const WirePayload& p : BuildWireCorpus()) {
    SCOPED_TRACE(p.name);
    // Every strict prefix must be rejected: the element counts at the front
    // no longer match the remaining bytes, or AtEnd fails.
    for (size_t len = 0; len < p.bytes.size(); ++len) {
      std::vector<uint8_t> prefix(p.bytes.begin(),
                                  p.bytes.begin() + static_cast<long>(len));
      EXPECT_FALSE(p.decode(prefix)) << "prefix of length " << len;
    }
    // Trailing junk must be rejected too (decoders require AtEnd).
    for (int extra = 1; extra <= 8; ++extra) {
      std::vector<uint8_t> extended = p.bytes;
      for (int i = 0; i < extra; ++i) {
        extended.push_back(static_cast<uint8_t>(rng.Uniform(256)));
      }
      EXPECT_FALSE(p.decode(extended)) << extra << " junk bytes appended";
    }
  }
}

TEST(WireCodecTest, ZeroWidthMatchBatchCarriesNoRows) {
  // A zero-width row takes no payload bytes, so the byte budget cannot
  // bound the row count: a 16-byte header claiming 2^32 - 1 rows must be
  // rejected, not reserve 2^32 - 1 empty bindings.
  std::vector<uint8_t> forged = EncodeMatchBatch(0, 0, {});
  ASSERT_EQ(forged.size(), 16u);
  for (size_t i = 12; i < 16; ++i) forged[i] = 0xFF;  // the row count
  EXPECT_FALSE(DecodeMatchBatch(forged).ok());

  auto empty = DecodeMatchBatch(EncodeMatchBatch(0, 0, {}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_lpms, 0u);
  EXPECT_EQ(empty->width, 0u);
  EXPECT_TRUE(empty->matches.empty());
}

/// Appends `v` little-endian, as every codec writes a u32.
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// A small cyclic query: the triangle v0 -> v1 -> v2 -> v0 and the pendant
/// edge v0 -> v3. Signed {v0, v1, v2}, an item's only crossing edge is
/// v0 -> v3, so its feature row carries the ids of v0 and v3 and its LPM
/// row those of v0..v3; v1 and v2 are island vertices that no crossing
/// mapping names.
QueryGraph TrianglePendantQuery() {
  QueryGraph q;
  q.AddEdge("?v0", "<p>", "?v1");
  q.AddEdge("?v1", "<p>", "?v2");
  q.AddEdge("?v2", "<p>", "?v0");
  q.AddEdge("?v0", "<p>", "?v3");
  return q;
}

/// One crafted feature or LPM batch of a query of at most 8 vertices: one
/// row of the sign byte `sign` and the ids `ids`.
std::vector<uint8_t> CraftedRow(uint8_t sign, std::vector<TermId> ids) {
  std::vector<uint8_t> b;
  PutU32(&b, 1);  // one row
  b.push_back(sign);
  for (TermId id : ids) PutU32(&b, id);
  return b;
}

constexpr uint8_t kTriangle = 0b0111;  // {v0, v1, v2}

TEST(WireCodecTest, FeatureRowsCarryExactlyTheCrossingEndpoints) {
  const QueryGraph q = TrianglePendantQuery();
  ASSERT_EQ(q.num_vertices(), 4u);
  // Control: the ids of v0 and v3 rebuild the one crossing mapping, and the
  // fragment is the sending site's.
  auto ok = DecodeLecFeatureBatch(CraftedRow(kTriangle, {10, 13}), q, 2);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].fragment, 2);
  EXPECT_EQ((*ok)[0].sign, LecSign{kTriangle});
  EXPECT_EQ((*ok)[0].crossing,
            (std::vector<CrossingPairMap>{{0, 3, 10, 13}}));
  // The sign's padding bits past n are ignored.
  auto padded = DecodeLecFeatureBatch(CraftedRow(0xF0 | kTriangle, {10, 13}),
                                      q, 2);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, *ok);
  // A sign with no crossing edge: 0, or the whole (connected) query.
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedRow(0, {}), q, 2).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedRow(0, {10, 13}), q, 2).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedRow(0b1111, {}), q, 2).ok());
  EXPECT_FALSE(
      DecodeLecFeatureBatch(CraftedRow(0b1111, {10, 11, 12, 13}), q, 2).ok());
  // One id short, one id too many.
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedRow(kTriangle, {10}), q, 2).ok());
  EXPECT_FALSE(
      DecodeLecFeatureBatch(CraftedRow(kTriangle, {10, 13, 14}), q, 2).ok());
  // A kNullTerm at a crossing endpoint.
  EXPECT_FALSE(
      DecodeLecFeatureBatch(CraftedRow(kTriangle, {10, kNullTerm}), q, 2).ok());
  EXPECT_FALSE(
      DecodeLecFeatureBatch(CraftedRow(kTriangle, {kNullTerm, 13}), q, 2).ok());
  // Signed {v0}, every vertex is a crossing endpoint.
  auto star = DecodeLecFeatureBatch(CraftedRow(0b0001, {10, 11, 12, 13}), q, 2);
  ASSERT_TRUE(star.ok());
  EXPECT_EQ((*star)[0].crossing,
            (std::vector<CrossingPairMap>{
                {0, 1, 10, 11}, {0, 3, 10, 13}, {2, 0, 12, 10}}));
  EXPECT_FALSE(
      DecodeLecFeatureBatch(CraftedRow(0b0001, {10, 11, 13}), q, 2).ok());
}

TEST(WireCodecTest, LpmRowsCarryTheIslandAndBoundary) {
  const QueryGraph q = TrianglePendantQuery();
  // Control: every island and boundary vertex bound; the crossing mapping
  // is derived from the binding, so it cannot contradict it.
  auto ok = DecodeLpmBatch(CraftedRow(kTriangle, {10, 11, 12, 13}), q, 1);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].fragment, 1);
  EXPECT_EQ((*ok)[0].binding, (Binding{10, 11, 12, 13}));
  EXPECT_EQ((*ok)[0].crossing,
            (std::vector<CrossingPairMap>{{0, 3, 10, 13}}));
  // Signed {v1} or {v3}, the vertices off the island and its boundary stay
  // unbound.
  auto middle = DecodeLpmBatch(CraftedRow(0b0010, {10, 11, 12}), q, 1);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ((*middle)[0].binding, (Binding{10, 11, 12, kNullTerm}));
  auto leaf = DecodeLpmBatch(CraftedRow(0b1000, {10, 13}), q, 1);
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ((*leaf)[0].binding, (Binding{10, kNullTerm, kNullTerm, 13}));
  // A sign with no crossing edge.
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(0, {}), q, 1).ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(0b1111, {10, 11, 12, 13}), q, 1).ok());
  // The feature row of the same item is two ids short; one id too many.
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(kTriangle, {10, 13}), q, 1).ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(kTriangle, {10, 11, 12}), q, 1).ok());
  EXPECT_FALSE(
      DecodeLpmBatch(CraftedRow(kTriangle, {10, 11, 12, 13, 14}), q, 1).ok());
  // A kNullTerm at a crossing endpoint, and at an island vertex that no
  // crossing mapping names, which assembly would carry into a "match" with
  // an unbound vertex.
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(kTriangle, {10, 11, 12, kNullTerm}),
                              q, 1)
                   .ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(kTriangle, {10, kNullTerm, 12, 13}),
                              q, 1)
                   .ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedRow(0b1000, {kNullTerm, 13}), q, 1).ok());
}

TEST(WireCodecTest, QueriesPastTheEnumerableBoundAreRejected) {
  // The joins index per-vertex arrays by sign bit and crossing endpoint,
  // and a sign is a 32-bit mask, so the decoders take no query of more than
  // kMaxEnumerableVertices vertices. A path ?v0 -> ... -> ?v{n-1}, signed
  // {v(n-1)}: its one crossing edge is v(n-2) -> v(n-1).
  auto path = [](size_t n) {
    QueryGraph q;
    for (size_t v = 0; v + 1 < n; ++v) {
      q.AddEdge("?v" + std::to_string(v), "<p>", "?v" + std::to_string(v + 1));
    }
    return q;
  };
  auto last_signed = [](size_t n) {
    std::vector<uint8_t> b;
    PutU32(&b, 1);
    const LecSign sign = LecSign{1} << (n - 1);
    for (size_t i = 0; i < n; i += 8) {
      b.push_back(static_cast<uint8_t>(sign >> i));
    }
    PutU32(&b, 10);
    PutU32(&b, 11);
    return b;
  };
  const QueryGraph at_bound = path(kMaxEnumerableVertices);
  auto ok = DecodeLecFeatureBatch(last_signed(kMaxEnumerableVertices),
                                  at_bound, 0);
  ASSERT_TRUE(ok.ok());
  const auto last = static_cast<QVertexId>(kMaxEnumerableVertices - 1);
  EXPECT_EQ((*ok)[0].crossing,
            (std::vector<CrossingPairMap>{{last - 1, last, 10, 11}}));
  const QueryGraph past = path(kMaxEnumerableVertices + 1);
  EXPECT_FALSE(
      DecodeLecFeatureBatch(last_signed(kMaxEnumerableVertices + 1), past, 0)
          .ok());
  EXPECT_FALSE(
      DecodeLpmBatch(last_signed(kMaxEnumerableVertices + 1), past, 0).ok());
  EXPECT_FALSE(DecodeLpmBatch(EncodeLpmBatch({}, {}), past, 0).ok());
}

TEST(WireCodecTest, FilterSetsCarryEveryVariableExactlyOnce) {
  // A site's filter set must name each query variable once, in order: a
  // set that leaves one out would drop that site's candidates from the
  // union, and other sites would then filter away true matches. Each
  // rejected payload sits next to an accepted control.
  const std::vector<QVertexId> vars = {0, 1};
  auto decodes = [](const FilterSet& set, std::span<const QVertexId> want) {
    return DecodeFilterSet(EncodeFilterSet(set), want).ok();
  };
  const FilterEntry ids0 = IdEntry(0, {3, 5, 9});
  const FilterEntry vec1 = VectorEntry(1, SteppedIds(1));
  EXPECT_TRUE(decodes({ids0, vec1}, vars));
  EXPECT_TRUE(decodes({}, {}));
  EXPECT_FALSE(decodes({}, vars));  // empty
  EXPECT_FALSE(decodes({ids0}, vars));  // missing v1
  EXPECT_FALSE(decodes({vec1}, vars));  // missing v0
  EXPECT_FALSE(decodes({ids0, ids0}, vars));  // v0 twice, no v1
  EXPECT_FALSE(decodes({ids0, vec1, vec1}, vars));  // v1 twice
  EXPECT_FALSE(decodes({vec1, ids0}, vars));  // out of order
  EXPECT_FALSE(decodes({ids0, vec1}, std::vector<QVertexId>{0, 2}));
}

TEST(WireCodecTest, IdEntriesAreAscendingShorterAndWithinThePayload) {
  const std::vector<QVertexId> v0 = {0};
  auto decodes = [&](const FilterEntry& entry) {
    return DecodeFilterSet(EncodeFilterSet({entry}), v0).ok();
  };
  EXPECT_TRUE(decodes(IdEntry(0, {3, 5, 9})));
  EXPECT_TRUE(decodes(IdEntry(0, {})));
  EXPECT_FALSE(decodes(IdEntry(0, {5, 3, 9})));  // unsorted
  EXPECT_FALSE(decodes(IdEntry(0, {3, 3, 9})));  // repeated
  // A 64-bit vector is one 8-byte word, so only 0 or 1 ids are shorter.
  EXPECT_TRUE(decodes(IdEntry(0, {3}, 64)));
  EXPECT_FALSE(decodes(IdEntry(0, {3, 5}, 64)));

  // The element count word sits after the set count (4), var (4) and bits
  // (8); its top bit marks the id form.
  const std::vector<uint8_t> control = EncodeFilterSet({IdEntry(0, {3, 5, 9})});
  ASSERT_EQ(control.size(), 4u + 16u + 3u * 4u);
  for (uint32_t claimed : {4u, 31u, 0x7FFFFFFFu}) {
    std::vector<uint8_t> forged = control;
    const uint32_t word = (uint32_t{1} << 31) | claimed;
    for (size_t i = 0; i < 4; ++i) {
      forged[16 + i] = static_cast<uint8_t>(word >> (8 * i));
    }
    EXPECT_FALSE(DecodeFilterSet(forged, v0).ok()) << claimed;
  }
}

TEST(WireCodecTest, NoFilterEntryEncodesLongerThanItsVector) {
  // At the default length a vector entry is 16 + 8,192 bytes and an id
  // entry 16 + 4 bytes per id, so the ids go while there are fewer than
  // 2,048 of them, and MakeFilterEntry never picks the longer form.
  const size_t bits = BitvectorFilter::kDefaultBits;
  const size_t vector_bytes = 4 + 16 + bits / 8;
  EXPECT_TRUE(IdsEncodeShorter(2047, bits));
  EXPECT_FALSE(IdsEncodeShorter(2048, bits));
  for (size_t count : {0u, 1u, 2047u, 2048u, 5000u}) {
    std::vector<TermId> ids(count);
    std::iota(ids.begin(), ids.end(), TermId{7});
    const FilterEntry entry = MakeFilterEntry(0, ids, bits);
    const size_t bytes = EncodeFilterSet({entry}).size();
    EXPECT_LE(bytes, vector_bytes) << count;
    EXPECT_EQ(entry.vector.has_value(), count >= 2048) << count;
    if (!entry.vector) {
      EXPECT_EQ(bytes, 4 + 16 + 4 * count);
      EXPECT_EQ(entry.ids, ids);
    } else {
      for (TermId id : ids) EXPECT_TRUE(entry.vector->MayContain(id));
    }
  }
}

TEST(WireCodecTest, BitmapCountNearTwoTo32IsRejectedUpFront) {
  // The byte count ceil(count / 8) of a count within 7 of 2^32 must not
  // wrap to zero: a 4-byte payload claiming it must fail at the length
  // check, not allocate a 512 MB bitmap and read 2^32 missing bytes first.
  for (uint32_t count : {0xFFFFFFF9u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> forged(4);
    for (size_t i = 0; i < 4; ++i) forged[i] = (count >> (8 * i)) & 0xFF;
    EXPECT_FALSE(DecodeBitmap(forged).ok()) << count;
  }
}

/// Random byte mutations of every valid wire payload. Each mutation must
/// either decode or return a Status — never crash (the transport feeds
/// decoder output straight into the coordinator pipeline, so a crashing
/// decoder would turn a network fault into a process fault).
class WireFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzSweep, DecodersNeverCrashOnMutatedPayloads) {
  std::vector<WirePayload> corpus = BuildWireCorpus();
  Rng rng(GetParam() ^ 0x5157);
  for (const WirePayload& p : corpus) {
    for (int i = 0; i < 300; ++i) {
      std::vector<uint8_t> mutated = p.bytes;
      int edits = 1 + static_cast<int>(rng.Uniform(4));
      for (int e = 0; e < edits; ++e) {
        if (mutated.empty()) {
          mutated.push_back(static_cast<uint8_t>(rng.Uniform(256)));
          continue;
        }
        auto pos = static_cast<std::ptrdiff_t>(rng.Uniform(mutated.size()));
        switch (rng.Uniform(3)) {
          case 0:
            mutated[static_cast<size_t>(pos)] =
                static_cast<uint8_t>(rng.Uniform(256));
            break;
          case 1:
            mutated.erase(mutated.begin() + pos);
            break;
          default:
            mutated.insert(mutated.begin() + pos,
                           static_cast<uint8_t>(rng.Uniform(256)));
        }
      }
      (void)p.decode(mutated);  // must return, never crash
    }
    // Pure garbage of random lengths.
    for (int i = 0; i < 100; ++i) {
      std::vector<uint8_t> garbage(rng.Uniform(64));
      for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Uniform(256));
      (void)p.decode(garbage);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(DegenerateDatasetTest, LiteralOnlyObjectsNeverCross) {
  // Semantic hash co-locates literals with subjects; every edge is internal.
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    data.AddTripleLexical("<http://d.org/e" + std::to_string(i) + ">",
                          "<http://d.org/label>",
                          "\"label " + std::to_string(i) + "\"");
  }
  data.Finalize();
  Partitioning p = SemanticHashPartitioner().Partition(data, 4);
  for (const Fragment& f : p.fragments()) {
    EXPECT_TRUE(f.crossing_edges().empty());
  }
}

}  // namespace
}  // namespace gstored
