#include "fourier/level_inequality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fourier/families.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

TEST(KklBound, OptimizedIsNoWorseThanFixedDeltas) {
  for (double mu : {0.01, 0.1, 0.3}) {
    for (unsigned r : {1u, 2u, 4u}) {
      const double best = kkl_level_bound_optimized(mu, r);
      for (double delta : {0.1, 0.3, 0.5, 0.9, 1.0}) {
        // delta^{-r} mu^{2/(1+delta)}
        const double bound = std::pow(delta, -static_cast<double>(r)) *
                             std::pow(mu, 2.0 / (1.0 + delta));
        EXPECT_LE(best, bound * (1.0 + 1e-6))
            << "mu=" << mu << " r=" << r << " delta=" << delta;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The inequality itself (Lemma 5.4): checked on concrete function families
// and random functions across levels, against the bound at its best delta,
// as E6c checks it.
// ---------------------------------------------------------------------------

/// Lemma 5.4's lhs minus its rhs for f at level r (non-positive when it
/// holds).
double kkl_slack(const BooleanCubeFunction& f, unsigned r) {
  return level_weight_up_to(f, r) - kkl_level_bound_optimized(f.mean(), r);
}

class KklHoldsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(KklHoldsTest, HoldsForBiasedAnds) {
  const unsigned r = GetParam();
  // AND of w variables has mean 2^{-w}: the canonical biased function the
  // AND-rule lower bound exploits.
  for (unsigned w = 1; w <= 6; ++w) {
    const auto f = fn::and_of(8, (1ULL << w) - 1);
    EXPECT_LE(kkl_slack(f, r), 1e-9) << "w=" << w << " r=" << r;
  }
}

TEST_P(KklHoldsTest, HoldsForTribesAndThresholds) {
  const unsigned r = GetParam();
  EXPECT_LE(kkl_slack(fn::tribes(8, 4), r), 1e-9);
  for (unsigned t = 1; t <= 8; ++t) {
    EXPECT_LE(kkl_slack(fn::threshold_at_least(8, t), r), 1e-9);
  }
}

TEST_P(KklHoldsTest, HoldsForRandomFunctions) {
  const unsigned r = GetParam();
  Rng rng(derive_seed(42, r));
  for (double p : {0.02, 0.1, 0.5, 0.9}) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto f = fn::random_boolean(7, p, rng);
      EXPECT_LE(kkl_slack(f, r), 1e-9) << "p=" << p << " r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, KklHoldsTest,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(LevelWeightUpTo, MatchesManualSum) {
  Rng rng(7);
  const auto f = fn::random_boolean(6, 0.3, rng);
  double manual = 0.0;
  for (unsigned level = 0; level <= 2; ++level) {
    manual += f.level_weight(level);
  }
  EXPECT_NEAR(level_weight_up_to(f, 2), manual, 1e-12);
}

TEST(KklBound, TightnessTrend) {
  // For small mu the bound at low level should be much smaller than the
  // trivial bound mu (which is all the Fourier weight there is): this is
  // exactly why biased bits carry little low-level information.
  const double mu = 1e-3;
  const double bound = kkl_level_bound_optimized(mu, 1);
  EXPECT_LT(bound, mu);
}

}  // namespace
}  // namespace duti
