#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tile");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tile");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tile");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  CUMULON_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "inner");
}

TEST(StatusTest, StatusCodeToStringCoversAllCodes) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<std::string> Doubled(int x) {
  CUMULON_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return StrCat(v * 2);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto r = Doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "42");
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto r = Doubled(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, StrCatConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
  EXPECT_EQ(FormatBytes(int64_t{5} * 1024 * 1024 * 1024), "5.0 GiB");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.25), "250ms");
  EXPECT_EQ(FormatDuration(42.0), "42.0s");
  EXPECT_EQ(FormatDuration(150.0), "2m30s");
  EXPECT_EQ(FormatDuration(7260.0), "2h01m");
}

TEST(StringsTest, FormatMoney) {
  EXPECT_EQ(FormatMoney(0.06), "$0.0600");
  EXPECT_EQ(FormatMoney(12.5), "$12.50");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BoundedUniformHitsAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(6));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// NextGaussian is the Box-Muller stream spelled out below: u1 (redrawn
// while 0) and u2, then r cos(theta) and r sin(theta). FillGaussian and
// GenerateMatrix are checked against NextGaussian, so this pins their
// values too.
TEST(RngTest, GaussianIsTheBoxMullerStream) {
  Rng rng(17);
  Rng uniforms(17);
  for (int i = 0; i < 1000; ++i) {
    double u1 = 0.0;
    while (u1 == 0.0) u1 = uniforms.NextDouble();
    const double u2 = uniforms.NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    ASSERT_EQ(rng.NextGaussian(), r * std::cos(theta));
    ASSERT_EQ(rng.NextGaussian(), r * std::sin(theta));
  }
  EXPECT_EQ(rng.NextUint64(), uniforms.NextUint64());
}

TEST(RngTest, LogNormalMeanOneWhenMuCompensated) {
  Rng rng(13);
  const double sigma = 0.3;
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextLogNormal(-0.5 * sigma * sigma, sigma);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng fork = a.Fork();
  // The fork and the parent should not emit identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == fork.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// Stopwatch & ThreadPool
// ---------------------------------------------------------------------------

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  });
  // WaitIdle covers nested submissions because the queue refills before the
  // outer task retires.
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

}  // namespace
}  // namespace cumulon
