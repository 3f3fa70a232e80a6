#include "fourier/families.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(Families, ConstantSpectrum) {
  const auto f = fn::constant(4, 0.3);
  EXPECT_NEAR(f.mean(), 0.3, 1e-12);
  EXPECT_NEAR(f.variance(), 0.0, 1e-12);
}

TEST(Families, ParitySpectrum) {
  // parity_S = (1 - chi_S)/2.
  const std::uint64_t mask = 0b1011;
  const auto f = fn::parity(4, mask);
  EXPECT_NEAR(f.fourier_coefficient(0), 0.5, 1e-12);
  EXPECT_NEAR(f.fourier_coefficient(mask), -0.5, 1e-12);
  for (std::uint64_t s = 1; s < 16; ++s) {
    if (s != mask) {
      ASSERT_NEAR(f.fourier_coefficient(s), 0.0, 1e-12);
    }
  }
}

TEST(Families, AndMeanIsExponentiallySmall) {
  for (unsigned width : {1u, 3u, 5u}) {
    const std::uint64_t mask = (1ULL << width) - 1;
    const auto f = fn::and_of(6, mask);
    EXPECT_NEAR(f.mean(), std::ldexp(1.0, -static_cast<int>(width)), 1e-12);
  }
}

TEST(Families, AndIsOneIffEveryMaskedBitIsSet) {
  const std::uint64_t mask = 0b10110;
  const auto and_f = fn::and_of(5, mask);
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_DOUBLE_EQ(and_f.value(x), (x & mask) == mask ? 1.0 : 0.0);
  }
}

TEST(Families, MajorityBalanced) {
  const auto f = fn::majority(5);
  EXPECT_NEAR(f.mean(), 0.5, 1e-12);
  EXPECT_NEAR(f.variance(), 0.25, 1e-12);
  // Majority is odd: all even-level non-empty coefficients vanish.
  for (unsigned level = 2; level <= 4; level += 2) {
    EXPECT_NEAR(f.level_weight(level), 0.0, 1e-12);
  }
  EXPECT_THROW(fn::majority(4), InvalidArgument);
}

TEST(Families, MajorityLevelOneWeight) {
  // W^1(Maj_3) = 3 * (1/2)^2? Maj_3 hat({i}) = -1/4 each (with our 0/1
  // convention): check total level-1 weight = 3/16... compute directly.
  const auto f = fn::majority(3);
  const double w1 = f.level_weight(1);
  // Maj3 = x0x1 + x0x2 + x1x2 - ... easier: exhaustive check against known
  // value 0.1875 (= 3 * (1/4)^2).
  EXPECT_NEAR(w1, 0.1875, 1e-12);
}

TEST(Families, ThresholdMonotoneInT) {
  for (unsigned t = 1; t <= 6; ++t) {
    const auto f = fn::threshold_at_least(6, t);
    const auto g = fn::threshold_at_least(6, t - 1);
    EXPECT_LE(f.mean(), g.mean());
  }
  EXPECT_NEAR(fn::threshold_at_least(6, 0).mean(), 1.0, 1e-12);
  EXPECT_NEAR(fn::threshold_at_least(6, 7).mean(), 0.0, 1e-12);
}

TEST(Families, TribesStructure) {
  const auto f = fn::tribes(6, 3);
  // 1 - (1 - 1/8)^2 = 15/64.
  EXPECT_NEAR(f.mean(), 15.0 / 64.0, 1e-12);
  EXPECT_THROW(fn::tribes(7, 3), InvalidArgument);
}

TEST(Families, RandomBooleanMeanTracksP) {
  Rng rng(1);
  const auto f = fn::random_boolean(10, 0.2, rng);
  EXPECT_TRUE(f.is_boolean01());
  EXPECT_NEAR(f.mean(), 0.2, 0.05);
}

TEST(Families, RandomRealWithinRange) {
  Rng rng(2);
  const auto f = fn::random_real(6, -1.5, 2.5, rng);
  for (double v : f.values()) {
    ASSERT_GE(v, -1.5);
    ASSERT_LT(v, 2.5);
  }
}

}  // namespace
}  // namespace duti
