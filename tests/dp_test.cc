// Tests for src/dp: Laplace mechanism (including the non-zero-mean variant
// of Theorem 2), post-processing rounding, the privacy accountant, and an
// empirical differential-privacy ratio check.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dp/accountant.h"
#include "dp/laplace.h"

namespace frt {
namespace {

TEST(LaplaceMechanismTest, ValidatesParameters) {
  EXPECT_TRUE(LaplaceMechanism(1.0, 0.5).Validate().ok());
  EXPECT_FALSE(LaplaceMechanism(0.0, 0.5).Validate().ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, 0.0).Validate().ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, -1.0).Validate().ok());
  // An infinite epsilon is a zero noise scale: no privacy at all.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(LaplaceMechanism(1.0, inf).Validate().ok());
  EXPECT_FALSE(
      LaplaceMechanism(1.0, std::numeric_limits<double>::quiet_NaN())
          .Validate()
          .ok());
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  EXPECT_DOUBLE_EQ(LaplaceMechanism(1.0, 0.5).Scale(), 2.0);
  EXPECT_DOUBLE_EQ(LaplaceMechanism(2.0, 4.0).Scale(), 0.5);
}

TEST(LaplaceMechanismTest, ZeroMeanNoiseStatistics) {
  LaplaceMechanism mech(1.0, 1.0);  // scale 1
  Rng rng(1);
  const int n = 100000;
  double sum = 0.0;
  double sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = mech.SampleNoise(rng);
    sum += x;
    sum_abs += std::fabs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_abs / n, 1.0, 0.02);  // E|X| = scale for Laplace(0, b)
}

TEST(LaplaceMechanismTest, NonZeroMeanShiftsCenter) {
  // The paper's Stage-1 draw: Lap(-f, 1/eps) makes negative noise far more
  // likely than positive for f >> scale.
  LaplaceMechanism mech(1.0, 2.0);  // scale 0.5
  Rng rng(2);
  const double f = 10.0;
  int negative = 0;
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double noise = mech.SampleNoise(rng, -f);
    if (noise < 0) ++negative;
    sum += noise;
  }
  EXPECT_NEAR(sum / n, -f, 0.05);
  EXPECT_GT(static_cast<double>(negative) / n, 0.99);
}

TEST(LaplaceMechanismTest, PerturbAddsNoiseAroundMean) {
  LaplaceMechanism mech(1.0, 1.0);
  Rng rng(3);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += mech.Perturb(rng, 100.0, -7.0);
  EXPECT_NEAR(sum / n, 93.0, 0.1);
}

// --- post-processing ---

TEST(RoundingTest, RoundToInt) {
  EXPECT_EQ(RoundToInt(2.4), 2);
  EXPECT_EQ(RoundToInt(2.5), 3);
  EXPECT_EQ(RoundToInt(-2.5), -3);
  EXPECT_EQ(RoundToInt(0.0), 0);
}

TEST(RoundingTest, RoundToIntRangeClamps) {
  EXPECT_EQ(RoundToIntRange(-3.7, 0, 100), 0);
  EXPECT_EQ(RoundToIntRange(150.2, 0, 100), 100);
  EXPECT_EQ(RoundToIntRange(42.4, 0, 100), 42);
}

TEST(RoundingTest, RoundToNonNegative) {
  EXPECT_EQ(RoundToNonNegativeInt(-0.6), 0);
  EXPECT_EQ(RoundToNonNegativeInt(-100.0), 0);
  EXPECT_EQ(RoundToNonNegativeInt(3.6), 4);
}

// --- accountant ---

TEST(AccountantTest, TracksSequentialComposition) {
  PrivacyAccountant acc;  // unbounded
  EXPECT_TRUE(acc.Spend(0.5, "global").ok());
  EXPECT_TRUE(acc.Spend(0.5, "local").ok());
  EXPECT_DOUBLE_EQ(acc.spent(), 1.0);
  EXPECT_FALSE(acc.enforcing());
}

TEST(AccountantTest, EnforcesBudget) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Spend(0.6, "a").ok());
  EXPECT_DOUBLE_EQ(acc.remaining(), 0.4);
  // Over budget: rejected, named in the refusal, and not recorded.
  const Status refused = acc.Spend(0.5, "local-PF");
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("local-PF"), std::string::npos)
      << refused.ToString();
  EXPECT_DOUBLE_EQ(acc.spent(), 0.6);
  EXPECT_TRUE(acc.Spend(0.4, "c").ok());
  EXPECT_NEAR(acc.remaining(), 0.0, 1e-12);
}

TEST(AccountantTest, RejectsNonPositiveOrNonFiniteSpend) {
  PrivacyAccountant acc;
  EXPECT_FALSE(acc.Spend(0.0, "x").ok());
  EXPECT_FALSE(acc.Spend(-1.0, "x").ok());
  EXPECT_FALSE(
      acc.Spend(std::numeric_limits<double>::infinity(), "x").ok());
  EXPECT_FALSE(
      acc.Spend(std::numeric_limits<double>::quiet_NaN(), "x").ok());
  EXPECT_EQ(acc.spent(), 0.0);
}

// --- empirical DP ratio check (Theorem 2) ---
//
// For the counting query f(D) in {c, c+1} (adjacent datasets), a mechanism
// is eps-DP when P[M(c) = o] <= e^eps * P[M(c+1) = o] for every output o.
// We verify the histogram ratio empirically for the *shifted* Laplace
// mechanism with rounding post-processing, at a tolerance accounting for
// sampling error.

class ShiftedLaplaceDpCheck : public ::testing::TestWithParam<double> {};

TEST_P(ShiftedLaplaceDpCheck, RatioBoundedByExpEpsilon) {
  const double epsilon = GetParam();
  const double mu_shift = -5.0;  // arbitrary non-zero mean, as in Stage-1
  LaplaceMechanism mech(1.0, epsilon);
  Rng rng(42);

  const int64_t c = 20;
  const int n = 400000;
  std::unordered_map<int64_t, double> hist_a;
  std::unordered_map<int64_t, double> hist_b;
  for (int i = 0; i < n; ++i) {
    hist_a[RoundToNonNegativeInt(
        mech.Perturb(rng, static_cast<double>(c), mu_shift))] += 1.0;
    hist_b[RoundToNonNegativeInt(
        mech.Perturb(rng, static_cast<double>(c + 1), mu_shift))] += 1.0;
  }
  const double bound = std::exp(epsilon);
  size_t checked = 0;
  for (const auto& [out, count_a] : hist_a) {
    auto it = hist_b.find(out);
    if (it == hist_b.end()) continue;
    // Only well-populated bins: sparse bins are sampling noise.
    if (count_a < 500 || it->second < 500) continue;
    const double ratio = count_a / it->second;
    EXPECT_LE(ratio, bound * 1.25) << "output " << out;
    EXPECT_GE(ratio, 1.0 / (bound * 1.25)) << "output " << out;
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ShiftedLaplaceDpCheck,
                         ::testing::Values(0.5, 1.0, 2.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "eps" +
                                  std::to_string(static_cast<int>(
                                      info.param * 10));
                         });

}  // namespace
}  // namespace frt
