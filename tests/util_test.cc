// Unit tests for the util layer: Status/Result, Rng, hashing, string
// helpers and the Algorithm-4 bit vector filter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/bitvector_filter.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gstored {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status err = Status::ParseError("bad line");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kParseError);
  EXPECT_EQ(err.ToString(), "PARSE_ERROR: bad line");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusAccess) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_TRUE(ok.status().ok());

  Result<int> bad(Status::NotFound("missing"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  Result<std::string> moved(std::string("hello"));
  std::string taken = std::move(moved).value();
  EXPECT_EQ(taken, "hello");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t r = rng.UniformRange(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(31337);
  const int kBuckets = 10;
  const int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a test vector: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
}

TEST(HashTest, HashRangeOrderSensitive) {
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {3, 2, 1};
  EXPECT_NE(HashRange(a.begin(), a.end()), HashRange(b.begin(), b.end()));
  EXPECT_EQ(HashRange(a.begin(), a.end()), HashRange(a.begin(), a.end()));
}

TEST(StringUtilTest, SplitStripAndAffixes) {
  auto pieces = SplitString("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("<http://x>", "<"));
  EXPECT_FALSE(StartsWith("x", "xy"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", "file.nt"));
}

TEST(BitvectorFilterTest, NoFalseNegatives) {
  BitvectorFilter filter(1 << 12);
  Rng rng(5);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 500; ++i) {
    uint64_t id = rng.Next();
    filter.Insert(id);
    inserted.push_back(id);
  }
  for (uint64_t id : inserted) {
    EXPECT_TRUE(filter.MayContain(id));  // the one-sided-error guarantee
  }
}

TEST(BitvectorFilterTest, UnionPreservesMembership) {
  BitvectorFilter a(1 << 10);
  BitvectorFilter b(1 << 10);
  a.Insert(1);
  a.Insert(2);
  b.Insert(100);
  a.UnionWith(b);
  EXPECT_TRUE(a.MayContain(1));
  EXPECT_TRUE(a.MayContain(100));
}

TEST(BitvectorFilterTest, FixedByteSizeIndependentOfContent) {
  BitvectorFilter empty(1 << 10);
  BitvectorFilter full(1 << 10);
  for (uint64_t i = 0; i < 5000; ++i) full.Insert(i);
  // The fixed length is what bounds Alg. 4's communication cost.
  EXPECT_EQ(empty.ByteSize(), full.ByteSize());
  EXPECT_EQ(empty.ByteSize(), (1u << 10) / 8);
  EXPECT_GT(full.FillRatio(), 0.9);
  EXPECT_EQ(empty.FillRatio(), 0.0);
}

TEST(BitvectorFilterTest, SelectiveEnoughAtDefaultSize) {
  BitvectorFilter filter;  // default 64K bits
  for (uint64_t i = 0; i < 1000; ++i) filter.Insert(i * 2654435761ULL);
  int false_positives = 0;
  for (uint64_t probe = 1; probe <= 10000; ++probe) {
    if (filter.MayContain(probe * 7919ULL + 13)) ++false_positives;
  }
  // ~1.5% fill => expect ~150/10000 false positives; allow generous slack.
  EXPECT_LT(false_positives, 600);
}

}  // namespace
}  // namespace gstored
