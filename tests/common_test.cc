// Unit tests for src/common: Status, Result, Rng, strings, FunctionRef,
// Span.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/function_ref.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"
#include "common/strings.h"

namespace frt {
namespace {

// ---------------- Status ----------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad m");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad m");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad m");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::NotFound("key");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_EQ(t.message(), "key");
  // Copy is independent.
  t = Status::OK();
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(s.IsNotFound());
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

Status FailsWhenNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int v) {
  FRT_RETURN_IF_ERROR(FailsWhenNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

// ---------------- Result ----------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-7), -7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  FRT_ASSIGN_OR_RETURN(const int h, Half(v));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  auto r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------- Rng ----------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GE(differing, 15);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::set<uint64_t> seen;
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{5});
    ASSERT_LT(v, 5u);
    seen.insert(v);
    ++counts[v];
  }
  EXPECT_EQ(seen.size(), 5u);
  for (const int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.08);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(19);
  const int n = 100000;
  const double mu = -4.0;
  const double b = 2.0;
  double sum = 0.0;
  double sum_abs_dev = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Laplace(mu, b);
    sum += v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, mu, 0.05);
  // E|X - mu| = b for Laplace.
  Rng rng2(19);
  for (int i = 0; i < n; ++i) {
    sum_abs_dev += std::fabs(rng2.Laplace(mu, b) - mu);
  }
  EXPECT_NEAR(sum_abs_dev / n, b, 0.05);
}

TEST(RngTest, LaplaceMedianAtMu) {
  Rng rng(23);
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Laplace(10.0, 5.0) < 10.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.07);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The child stream should not replay the parent's outputs.
  Rng b(31);
  b.Next();  // align with the Fork() consumption
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    if (child.Next() == b.Next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

// ---------------- strings ----------------

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \t "), "");
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("RSC-0.5", "RSC"));
  EXPECT_FALSE(StartsWith("SC", "RSC"));
}

// ---------------- FunctionRef ----------------

int FreeTwice(int x) { return 2 * x; }

TEST(FunctionRefTest, DefaultIsNull) {
  FunctionRef<int(int)> f;
  EXPECT_FALSE(static_cast<bool>(f));
  FunctionRef<int(int)> g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(FunctionRefTest, BindsNamedLambda) {
  int calls = 0;
  auto add = [&calls](int x) {
    ++calls;
    return x + 1;
  };
  FunctionRef<int(int)> f = add;
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(41), 42);
  EXPECT_EQ(calls, 1);
}

TEST(FunctionRefTest, BindsConstLambdaAndFunctionPointer) {
  const auto square = [](int x) { return x * x; };
  FunctionRef<int(int)> f = square;
  EXPECT_EQ(f(7), 49);
  FunctionRef<int(int)> g = FreeTwice;
  EXPECT_EQ(g(21), 42);
}

TEST(FunctionRefTest, CopyRefersToSameCallable) {
  int hits = 0;
  auto bump = [&hits](int) {
    ++hits;
    return 0;
  };
  FunctionRef<int(int)> f = bump;
  FunctionRef<int(int)> g = f;
  (void)f(0);
  (void)g(0);
  EXPECT_EQ(hits, 2);
}

// ---------------- Span ----------------

TEST(SpanTest, DefaultIsEmpty) {
  Span<const int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.begin(), s.end());
}

TEST(SpanTest, ViewsVectorWithoutCopy) {
  std::vector<int> v = {1, 2, 3};
  Span<const int> s = v;
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.data(), v.data());
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s.front(), 1);
  EXPECT_EQ(s.back(), 3);
  int sum = 0;
  for (const int x : s) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(SpanTest, MutableSpanWritesThrough) {
  std::vector<int> v = {1, 2, 3};
  Span<int> s = v;
  s[1] = 20;
  EXPECT_EQ(v[1], 20);
  Span<const int> sub(s.data() + 1, 2);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0], 20);
}

TEST(LoggingTest, ParseLogLevelAcceptsTheWholeRange) {
  ASSERT_TRUE(ParseLogLevel("0").has_value());
  EXPECT_EQ(*ParseLogLevel("0"), LogLevel::kDebug);
  EXPECT_EQ(*ParseLogLevel("1"), LogLevel::kInfo);
  EXPECT_EQ(*ParseLogLevel("2"), LogLevel::kWarning);
  EXPECT_EQ(*ParseLogLevel("3"), LogLevel::kError);
  EXPECT_EQ(*ParseLogLevel("4"), LogLevel::kOff);
}

TEST(LoggingTest, ParseLogLevelRejectsWhatAtoiSilentlyZeroed) {
  // The regression this locks in: atoi("garbage") == 0 used to turn any
  // malformed FRT_LOG_LEVEL into kDebug (the noisiest level). Every one
  // of these must now be rejected so the caller keeps its default.
  for (const char* bad : {"", "x", "1x", "x1", " 1", "1 ", "1.5", "-1",
                          "5", "007x", "2147483648999", "--2", "+ 2"}) {
    EXPECT_FALSE(ParseLogLevel(bad).has_value()) << "accepted: '" << bad
                                                 << "'";
  }
  EXPECT_FALSE(ParseLogLevel(nullptr).has_value());
}

}  // namespace
}  // namespace frt
