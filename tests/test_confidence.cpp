#include "util/confidence.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

TEST(Wilson, ZeroTrialsIsFullInterval) {
  const auto iv = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(iv.lo, 0.0);
  EXPECT_DOUBLE_EQ(iv.hi, 1.0);
}

TEST(Wilson, ContainsEmpiricalRateInInterior) {
  // Note: at the boundaries (0 or all successes) the Wilson interval is
  // strictly inside [0,1] and deliberately excludes the degenerate rate.
  for (std::uint64_t trials : {10ULL, 100ULL, 1000ULL}) {
    for (std::uint64_t s = trials / 5; s < trials; s += trials / 5) {
      const auto iv = wilson_interval(s, trials);
      const double p = static_cast<double>(s) / static_cast<double>(trials);
      EXPECT_TRUE(iv.lo <= p && p <= iv.hi) << s << "/" << trials;
    }
  }
}

TEST(Wilson, BoundaryIntervalsShrinkTowardTruth) {
  const auto zero = wilson_interval(0, 100);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto full = wilson_interval(100, 100);
  EXPECT_LT(full.lo, 1.0);
  EXPECT_GT(full.lo, 0.9);
}

TEST(Wilson, StaysInUnitInterval) {
  const auto all = wilson_interval(100, 100);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.9);
  const auto none = wilson_interval(0, 100);
  EXPECT_GE(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.1);
}

TEST(Wilson, NarrowsWithTrials) {
  const auto small = wilson_interval(5, 10);
  const auto large = wilson_interval(500, 1000);
  EXPECT_LT(large.width(), small.width());
}

TEST(Wilson, HigherZIsWider) {
  const auto z196 = wilson_interval(30, 100, 1.96);
  const auto z258 = wilson_interval(30, 100, 2.58);
  EXPECT_GT(z258.width(), z196.width());
}

TEST(Wilson, InvalidArgsThrow) {
  EXPECT_THROW((void)wilson_interval(5, 4), InvalidArgument);
  EXPECT_THROW((void)wilson_interval(1, 4, 0.0), InvalidArgument);
}

TEST(Wilson, Coverage) {
  // Empirical coverage check: the 95% interval should contain the true p
  // in at least ~90% of repetitions (conservatively loose bar).
  Rng rng(99);
  const double p = 0.3;
  const int reps = 500;
  const int trials = 200;
  int covered = 0;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t hits = 0;
    for (int t = 0; t < trials; ++t) {
      if (rng.next_bernoulli(p)) ++hits;
    }
    const auto iv = wilson_interval(hits, trials);
    if (iv.lo <= p && p <= iv.hi) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(0.9 * reps));
}

TEST(HoeffdingTrials, MatchesFormula) {
  const auto n = hoeffding_trials(0.1, 0.05);
  // log(2/0.05) / (2 * 0.01) = ~184.4 -> 185
  EXPECT_EQ(n, 185u);
  EXPECT_THROW((void)hoeffding_trials(0.0, 0.1), InvalidArgument);
  EXPECT_THROW((void)hoeffding_trials(0.1, 1.5), InvalidArgument);
}

TEST(NormalQuantile, MatchesKnownValues) {
  // Reference values of Phi^-1 to 4+ decimals (Acklam's approximation is
  // accurate to ~1e-9 relative error).
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.95996398, 1e-6);
  EXPECT_NEAR(normal_quantile(0.995), 2.57582930, 1e-6);
  EXPECT_NEAR(normal_quantile(0.9999), 3.71901649, 1e-6);
  EXPECT_NEAR(normal_quantile(0.0013499), -3.0, 1e-3);
}

TEST(NormalQuantile, SymmetricAndMonotone) {
  for (const double p : {0.01, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9) << p;
  }
  double prev = normal_quantile(0.001);
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double q = normal_quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(NormalQuantile, RejectsDegenerateProbabilities) {
  EXPECT_THROW((void)normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW((void)normal_quantile(1.0), InvalidArgument);
  EXPECT_THROW((void)normal_quantile(-0.2), InvalidArgument);
}

TEST(UnionBoundZ, SinglePeekIsTheTwoSidedQuantile) {
  EXPECT_NEAR(union_bound_z(0.05, 1), normal_quantile(0.975), 1e-9);
}

TEST(UnionBoundZ, GrowsWithPeekCountAndShrinkingDelta) {
  // More peeks split the failure budget further, so each peek needs a
  // wider interval; same for a smaller total delta.
  EXPECT_GT(union_bound_z(0.05, 10), union_bound_z(0.05, 1));
  EXPECT_GT(union_bound_z(0.001, 10), union_bound_z(0.05, 10));
  // Growth is logarithmic: even thousands of peeks stay at a usable z.
  EXPECT_LT(union_bound_z(1e-3, 10000), 6.0);
  EXPECT_THROW((void)union_bound_z(0.0, 4), InvalidArgument);
  EXPECT_THROW((void)union_bound_z(0.5, 0), InvalidArgument);
}

TEST(SuccessCounter, TallyAndRate) {
  SuccessCounter c;
  EXPECT_EQ(c.trials(), 0u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.0);
  c.record(true);
  c.record(true);
  c.record(false);
  EXPECT_EQ(c.trials(), 3u);
  EXPECT_EQ(c.successes(), 2u);
  EXPECT_NEAR(c.rate(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace duti
