// Robustness/failure-injection tests: the parsers and wire decoders must
// reject (never crash on) mutated and adversarial inputs, and the engine
// behaves on degenerate datasets (empty, single-triple, literal-heavy).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/lec_feature.h"
#include "net/wire.h"
#include "rdf/dataset.h"
#include "sparql/compound.h"
#include "sparql/parser.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

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

std::vector<WirePayload> BuildWireCorpus() {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  std::vector<LocalPartialMatch> lpms =
      testing::EnumerateAllLpms(partitioning, rq);
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
  const auto n = static_cast<uint32_t>(query.num_vertices());
  corpus.push_back(
      {"lec_feature_batch", EncodeLecFeatureBatch(lec.features, n),
       [n](const std::vector<uint8_t>& b) {
         return DecodeLecFeatureBatch(b, n).ok();
       }});
  std::vector<size_t> all(lpms.size());
  std::iota(all.begin(), all.end(), size_t{0});
  corpus.push_back({"lpm_batch", EncodeLpmBatch(lpms, all),
                    [n](const std::vector<uint8_t>& b) {
                      return DecodeLpmBatch(b, n).ok();
                    }});
  corpus.push_back(
      {"done_marker", EncodeDoneMarker(7),
       [](const std::vector<uint8_t>& b) { return DecodeDoneMarker(b).ok(); }});
  return corpus;
}

TEST(WireCodecTest, RoundTripsPreserveEveryPayloadType) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  std::vector<LocalPartialMatch> lpms =
      testing::EnumerateAllLpms(partitioning, rq);
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

  const auto n = static_cast<uint32_t>(query.num_vertices());
  auto feats = DecodeLecFeatureBatch(EncodeLecFeatureBatch(lec.features, n), n);
  ASSERT_TRUE(feats.ok());
  EXPECT_EQ(*feats, lec.features);

  std::vector<size_t> indices(lpms.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  auto all = DecodeLpmBatch(EncodeLpmBatch(lpms, indices), n);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, lpms);

  // A batch carries the indexed LPMs in index order.
  indices = {2, 0};
  auto sub = DecodeLpmBatch(EncodeLpmBatch(lpms, indices), n);
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->size(), 2u);
  EXPECT_EQ((*sub)[0], lpms[2]);
  EXPECT_EQ((*sub)[1], lpms[0]);

  auto done = DecodeDoneMarker(EncodeDoneMarker(7));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, 7u);
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

/// One crafted feature batch: a feature signed {v0} over `width` vertices
/// with one crossing mapping (q_from, q_to) -> (10, 11).
std::vector<uint8_t> CraftedFeatureBatch(uint32_t width, uint32_t q_from,
                                         uint32_t q_to) {
  std::vector<uint8_t> b;
  PutU32(&b, 1);  // one feature
  PutU32(&b, 0);  // fragment
  PutU32(&b, width);
  for (uint32_t i = 0; i < width; i += 8) b.push_back(i == 0 ? 1 : 0);
  PutU32(&b, 1);  // one crossing mapping
  for (uint32_t v : {q_from, q_to, 10u, 11u}) PutU32(&b, v);
  return b;
}

/// One crafted LPM batch: an LPM binding v0, v1 to 10, 11 in a binding of
/// `binding_width`, signed `sign` (default {v0}) over `sign_width` vertices,
/// crossing (0, 1).
std::vector<uint8_t> CraftedLpmBatch(uint32_t binding_width,
                                     uint32_t sign_width, LecSign sign = 1) {
  std::vector<uint8_t> b;
  PutU32(&b, 1);  // one LPM
  PutU32(&b, 0);  // fragment
  PutU32(&b, binding_width);
  for (uint32_t v = 0; v < binding_width; ++v) {
    PutU32(&b, v < 2 ? 10 + v : kNullTerm);
  }
  PutU32(&b, sign_width);
  for (uint32_t i = 0; i < sign_width; i += 8) {
    b.push_back(static_cast<uint8_t>(sign >> i));
  }
  PutU32(&b, 1);  // one crossing mapping
  for (uint32_t v : {0u, 1u, 10u, 11u}) PutU32(&b, v);
  return b;
}

TEST(WireCodecTest, VertexIdsPastTheEnumerableBoundAreRejected) {
  // The joins index per-vertex arrays by sign bit and by crossing endpoint,
  // so the decoders keep both below kMaxEnumerableVertices, and an LPM's
  // sign must span exactly its binding. Each payload is decoded at its own
  // width and is otherwise valid.
  EXPECT_TRUE(DecodeLecFeatureBatch(CraftedFeatureBatch(20, 0, 1), 20).ok());
  EXPECT_TRUE(DecodeLecFeatureBatch(CraftedFeatureBatch(20, 19, 1), 20).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(21, 0, 1), 21).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 40, 1), 5).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 0, 20), 5).ok());

  EXPECT_TRUE(DecodeLpmBatch(CraftedLpmBatch(5, 5), 5).ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedLpmBatch(5, 6), 5).ok());
}

TEST(WireCodecTest, ItemsWiderThanTheQueryAreRejected) {
  // A sign bit at or past the query's n aborts the joins (CheckedFullSign),
  // and so does a binding wider than n (MergeBindings), so the decoders
  // check every item against n, not only against the 20-vertex cap, and a
  // torn batch degrades its site instead of ending the process.
  // An LPM of binding and sign width 6, signed {v5}, at n = 5:
  EXPECT_FALSE(DecodeLpmBatch(CraftedLpmBatch(6, 6, LecSign{1} << 5), 5).ok());
  EXPECT_TRUE(DecodeLpmBatch(CraftedLpmBatch(6, 6, LecSign{1} << 5), 6).ok());
  EXPECT_FALSE(DecodeLpmBatch(CraftedLpmBatch(5, 5), 6).ok());
  // A crossing endpoint inside the cap but at or past n.
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 19, 1), 5).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 0, 5), 5).ok());
  EXPECT_TRUE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 0, 4), 5).ok());
  // A sign width inside the cap that is not the query's.
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(5, 0, 1), 6).ok());
  EXPECT_FALSE(DecodeLecFeatureBatch(CraftedFeatureBatch(6, 0, 1), 5).ok());
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
