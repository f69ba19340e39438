#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <set>
#include <type_traits>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/common/saturating.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/common/types.h"

namespace pspc {
namespace {

// ---------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad vertex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad vertex");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad vertex");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), Status::Code::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------ Saturating --

TEST(SaturatingTest, AddWithinRange) {
  EXPECT_EQ(SatAdd(2, 3), 5u);
  EXPECT_EQ(SatAdd(0, 0), 0u);
}

TEST(SaturatingTest, AddSaturates) {
  EXPECT_EQ(SatAdd(kSaturatedCount, 1), kSaturatedCount);
  EXPECT_EQ(SatAdd(kSaturatedCount - 1, 2), kSaturatedCount);
  EXPECT_EQ(SatAdd(kSaturatedCount - 1, 1), kSaturatedCount);
}

TEST(SaturatingTest, MulWithinRange) {
  EXPECT_EQ(SatMul(6, 7), 42u);
  EXPECT_EQ(SatMul(kSaturatedCount, 0), 0u);
  EXPECT_EQ(SatMul(0, kSaturatedCount), 0u);
  EXPECT_EQ(SatMul(kSaturatedCount, 1), kSaturatedCount);
}

TEST(SaturatingTest, MulSaturates) {
  EXPECT_EQ(SatMul(uint64_t{1} << 33, uint64_t{1} << 33), kSaturatedCount);
  EXPECT_EQ(SatMul(kSaturatedCount, 2), kSaturatedCount);
}

TEST(SaturatingTest, AddIsAssociativeUnderClamping) {
  // min(true_sum, MAX) semantics: grouping cannot change the result.
  // This property is what makes parallel count merging order-safe.
  const Count big = kSaturatedCount / 2 + 7;
  EXPECT_EQ(SatAdd(SatAdd(big, big), 5), SatAdd(big, SatAdd(big, 5)));
  EXPECT_EQ(SatAdd(SatAdd(5, big), big), SatAdd(big, SatAdd(big, 5)));
}

// ------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // rough uniformity
}

TEST(RngTest, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng child = parent.Split();
  // Child continues deterministically but differs from the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------ Timer --

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double sink = 0.0;
  {
    ScopedTimer st(&sink);
  }
  EXPECT_GE(sink, 0.0);
  const double first = sink;
  {
    ScopedTimer st(&sink);
  }
  EXPECT_GE(sink, first);
}

// ------------------------------------------------------------ Types --

TEST(TypesTest, SpcResultDefaultsToUnreachable) {
  SpcResult r;
  EXPECT_EQ(r.distance, kInfSpcDistance);
  EXPECT_EQ(r.count, 0u);
}

TEST(TypesTest, SpcResultEquality) {
  EXPECT_EQ((SpcResult{3, 7}), (SpcResult{3, 7}));
  EXPECT_NE((SpcResult{3, 7}), (SpcResult{3, 8}));
  EXPECT_NE((SpcResult{2, 7}), (SpcResult{3, 7}));
}

// -------------------------------------------------------- LockRank --

static_assert(!std::is_default_constructible_v<spc::Mutex>,
              "an unranked mutex must not compile");

// `mu` under another name, so clang's thread-safety analysis lets the
// deliberate re-lock below compile; the rank check still sees it.
spc::Mutex& SameMutex(spc::Mutex& mu) { return mu; }

TEST(LockRankDeathTest, InvertedPairDies) {
  spc::Mutex outer(spc::LockRank::kServingWriter);
  spc::Mutex inner(spc::LockRank::kUpdateTraceLog);
  EXPECT_DEATH(
      {
        spc::MutexLock a(inner);
        spc::MutexLock b(outer);
      },
      "lock order");
}

TEST(LockRankDeathTest, RelockingAHeldMutexDies) {
  spc::Mutex mu(spc::LockRank::kRequestQueue);
  EXPECT_DEATH(
      {
        alarm(10);  // without the check the re-lock would block forever
        spc::MutexLock a(mu);
        spc::MutexLock b(SameMutex(mu));
      },
      "lock order");
}

// HealthWatchdog::Evaluate drops its lock across a call that takes other
// locks, then re-locks; that call must have released them by then.
TEST(LockRankDeathTest, RelockAfterEarlyUnlockUnderAnInnerLockDies) {
  spc::Mutex outer(spc::LockRank::kWatchdog);
  spc::Mutex inner(spc::LockRank::kMetricsRegistry);
  EXPECT_DEATH(
      {
        spc::MutexLock lock(outer);
        lock.Unlock();
        spc::MutexLock held(inner);
        lock.Lock();
      },
      "lock order");
}

TEST(LockRankTest, OuterThenInnerNestsAcrossWaits) {
  spc::Mutex outer(spc::LockRank::kServingWriter);
  spc::Mutex inner(spc::LockRank::kUpdateTraceLog);
  spc::CondVar cv;
  for (int round = 0; round < 2; ++round) {
    spc::MutexLock a(outer);
    cv.WaitFor(outer, std::chrono::milliseconds(1));
    spc::MutexLock b(inner);
    cv.WaitFor(inner, std::chrono::milliseconds(1));
  }
  spc::MutexLock c(inner);  // both released: inner alone is fine
}

}  // namespace
}  // namespace pspc
