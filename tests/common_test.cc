#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace mdbs {
namespace {

// --------------------------------------------------------------------------
// Status / StatusOr
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::TransactionAborted("x").IsTransactionAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::NotFound("missing").message(), "missing");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status status = Status::TransactionAborted("deadlock victim");
  EXPECT_EQ(status.ToString(), "TransactionAborted: deadlock victim");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "Internal: boom");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    MDBS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// --------------------------------------------------------------------------
// Ids
// --------------------------------------------------------------------------

TEST(IdsTest, DefaultIsInvalid) {
  SiteId site;
  EXPECT_FALSE(site.valid());
  EXPECT_TRUE(SiteId(0).valid());
}

TEST(IdsTest, ComparisonAndHash) {
  EXPECT_EQ(TxnId(3), TxnId(3));
  EXPECT_NE(TxnId(3), TxnId(4));
  EXPECT_LT(TxnId(3), TxnId(4));
  std::set<GlobalTxnId> ids{GlobalTxnId(1), GlobalTxnId(2), GlobalTxnId(1)};
  EXPECT_EQ(ids.size(), 2u);
}

TEST(IdsTest, DistinctTagsAreDistinctTypes) {
  // SiteId and TxnId with the same value are different, incomparable types;
  // this is a compile-time property, exercised by ToString prefixes here.
  EXPECT_EQ(ToString(SiteId(7)), "s7");
  EXPECT_EQ(ToString(TxnId(7)), "T7");
  EXPECT_EQ(ToString(GlobalTxnId(7)), "G7");
  EXPECT_EQ(ToString(DataItemId(7)), "x7");
}

TEST(IdsTest, StreamOutput) {
  std::ostringstream os;
  os << SiteId(3) << " " << TxnId();
  EXPECT_EQ(os.str(), "s3 T<invalid>");
}

// --------------------------------------------------------------------------
// DataOp
// --------------------------------------------------------------------------

TEST(DataOpTest, ConflictRules) {
  DataOp r0 = DataOp::Read(DataItemId(0));
  DataOp w0 = DataOp::Write(DataItemId(0), 5);
  DataOp r1 = DataOp::Read(DataItemId(1));
  EXPECT_FALSE(r0.ConflictsWith(r0));     // Read-read never conflicts.
  EXPECT_TRUE(r0.ConflictsWith(w0));
  EXPECT_TRUE(w0.ConflictsWith(r0));
  EXPECT_TRUE(w0.ConflictsWith(w0));
  EXPECT_FALSE(r0.ConflictsWith(r1));     // Different items.
  EXPECT_FALSE(w0.ConflictsWith(DataOp::Write(DataItemId(1), 1)));
}

TEST(DataOpTest, ToStringFormats) {
  EXPECT_EQ(DataOp::Read(DataItemId(3)).ToString(), "r[x3]");
  EXPECT_EQ(DataOp::Write(DataItemId(3), 9).ToString(), "w[x3=9]");
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / 20000.0, 50.0, 3.0);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // Overwhelmingly likely with this seed.
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(42);
  Rng child = parent.Fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(child.Next(), parent.Next());
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(17);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Next(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(ZipfTest, SkewedFavorsSmallKeys) {
  Rng rng(17);
  ZipfGenerator zipf(100, 0.99);
  int head = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(&rng) < 10) ++head;
  }
  // Under theta=0.99 the top-10% of keys draw well over half the accesses.
  EXPECT_GT(head, kSamples / 2);
}

TEST(ZipfTest, AllValuesWithinRange) {
  Rng rng(23);
  ZipfGenerator zipf(7, 0.5);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Next(&rng), 7u);
}

// The workload generator builds one ZipfGenerator per transaction, so its
// draws decide every generated item. Uniform draws must consume exactly the
// stream NextBelow(n) consumes, and construction must draw nothing.
TEST(ZipfTest, UniformDrawsEqualNextBelowDrawForDraw) {
  for (uint64_t n : {uint64_t{1}, uint64_t{7}, uint64_t{2000},
                     uint64_t{1} << 40}) {
    Rng zipf_rng(99);
    Rng plain_rng(99);
    for (int txn = 0; txn < 50; ++txn) {
      ZipfGenerator zipf(n, 0.0);  // O(1) even for 2^40 items.
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(zipf.Next(&zipf_rng), plain_rng.NextBelow(n)) << "n=" << n;
      }
    }
  }
}

// Skewed draws keep the precomputed-constant construction; this sequence
// was recorded from it (seed 42, 1000 items) and must not drift.
TEST(ZipfTest, SkewedDrawSequenceIsPinned) {
  const std::vector<std::pair<double, std::vector<uint64_t>>> pinned = {
      {0.5, {9, 152, 470, 857, 983, 598, 524, 727, 586, 348, 473, 91}},
      {0.99, {0, 8, 88, 568, 940, 175, 119, 323, 165, 42, 90, 4}},
  };
  for (const auto& [theta, expected] : pinned) {
    Rng rng(42);
    ZipfGenerator zipf(1000, theta);
    std::vector<uint64_t> drawn;
    for (size_t i = 0; i < expected.size(); ++i) {
      drawn.push_back(zipf.Next(&rng));
    }
    EXPECT_EQ(drawn, expected) << "theta=" << theta;
  }
}

TEST(ZipfDeathTest, EmptyItemRangeFailsLoudly) {
  EXPECT_DEATH(ZipfGenerator(0, 0.0), "empty item range");
  EXPECT_DEATH(ZipfGenerator(0, 0.9), "empty item range");
}

// --------------------------------------------------------------------------
// Logging
// --------------------------------------------------------------------------

TEST(LoggingTest, LevelFilterRoundTrip) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(old_level);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  MDBS_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ MDBS_CHECK(false) << "expected failure"; },
               "Check failed");
}

}  // namespace
}  // namespace mdbs
