#include "fourier/boolean_function.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fourier/families.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

TEST(BooleanCubeFunction, ConstructionValidation) {
  EXPECT_NO_THROW(BooleanCubeFunction(std::vector<double>{1.0}));
  EXPECT_NO_THROW(BooleanCubeFunction(std::vector<double>(8, 0.0)));
  EXPECT_THROW(BooleanCubeFunction(std::vector<double>(3, 0.0)),
               InvalidArgument);
  EXPECT_THROW(BooleanCubeFunction(std::vector<double>{}), InvalidArgument);
}

TEST(BooleanCubeFunction, NumVars) {
  EXPECT_EQ(BooleanCubeFunction(std::vector<double>{1.0}).num_vars(), 0u);
  EXPECT_EQ(BooleanCubeFunction(std::vector<double>(16, 0.0)).num_vars(), 4u);
}

TEST(BooleanCubeFunction, IsBoolean01) {
  EXPECT_TRUE(BooleanCubeFunction({0.0, 1.0, 1.0, 0.0}).is_boolean01());
  EXPECT_FALSE(BooleanCubeFunction({0.5, 0.5, 0.0, 0.0}).is_boolean01());
}

TEST(BooleanCubeFunction, MeanAndVariance) {
  const BooleanCubeFunction f({0.0, 1.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(f.mean(), 0.5);
  EXPECT_DOUBLE_EQ(f.variance(), 0.25);
  const BooleanCubeFunction g({1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(g.variance(), 0.0);
}

TEST(BooleanCubeFunction, Fact22MeanIsEmptyCoefficient) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = fn::random_boolean(5, 0.3, rng);
    EXPECT_NEAR(f.fourier_coefficient(0), f.mean(), 1e-12);
  }
}

TEST(BooleanCubeFunction, Fact22VarianceIsNonEmptyWeight) {
  // var(f) = sum_{S != empty} f_hat(S)^2 — the identity the paper's
  // Fact 2.2 states; exercised on boolean and real-valued functions.
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = (trial % 2 == 0) ? fn::random_boolean(6, 0.4, rng)
                                    : fn::random_real(6, -1.0, 2.0, rng);
    double non_empty = 0.0;
    const auto& coeffs = f.fourier();
    for (std::size_t s = 1; s < coeffs.size(); ++s) {
      non_empty += coeffs[s] * coeffs[s];
    }
    EXPECT_NEAR(f.variance(), non_empty, 1e-10);
  }
}

/// E[f^2] over the uniform distribution on the cube.
double second_moment(const BooleanCubeFunction& f) {
  double e2 = 0.0;
  for (double v : f.values()) e2 += v * v;
  return e2 / static_cast<double>(f.domain_size());
}

TEST(BooleanCubeFunction, ParsevalFact21) {
  // sum_S f_hat(S)^2 = E[f^2].
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = fn::random_real(7, -2.0, 2.0, rng);
    double weight = 0.0;
    for (double c : f.fourier()) weight += c * c;
    EXPECT_NEAR(weight, second_moment(f), 1e-10);
  }
}

TEST(BooleanCubeFunction, LevelWeightsPartitionParseval) {
  Rng rng(4);
  const auto f = fn::random_boolean(6, 0.5, rng);
  double total = 0.0;
  for (unsigned level = 0; level <= 6; ++level) {
    total += f.level_weight(level);
  }
  EXPECT_NEAR(total, second_moment(f), 1e-10);
}

TEST(BooleanCubeFunction, TabulateMatchesValues) {
  const auto f = BooleanCubeFunction::tabulate(
      3, [](std::uint64_t x) { return static_cast<double>(x % 2); });
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_DOUBLE_EQ(f.value(x), static_cast<double>(x % 2));
  }
}

TEST(BooleanCubeFunction, RestrictionFixesVariables) {
  // f(x0,x1,x2) = x0 XOR x2 (as bits); fix x2 = 1 -> g(x0,x1) = NOT x0.
  const auto f = BooleanCubeFunction::tabulate(3, [](std::uint64_t x) {
    return static_cast<double>(((x >> 0) ^ (x >> 2)) & 1ULL);
  });
  const auto g = f.restrict_vars(0b100, 0b100);
  EXPECT_EQ(g.num_vars(), 2u);
  for (std::uint64_t y = 0; y < 4; ++y) {
    // free vars are x0 (bit0) and x1 (bit1), densely packed in order.
    const double expected = static_cast<double>(1 - (y & 1ULL));
    EXPECT_DOUBLE_EQ(g.value(y), expected) << "y=" << y;
  }
}

TEST(BooleanCubeFunction, RestrictionAveragesCompose) {
  // E over fixed values of mean(restriction) equals the global mean.
  Rng rng(6);
  const auto f = fn::random_real(6, 0.0, 1.0, rng);
  const std::uint64_t fixed_mask = 0b101010;
  double acc = 0.0;
  int count = 0;
  for (std::uint64_t assignment = 0; assignment < 64; ++assignment) {
    if ((assignment & ~fixed_mask) != 0) continue;
    acc += f.restrict_vars(fixed_mask, assignment).mean();
    ++count;
  }
  EXPECT_NEAR(acc / count, f.mean(), 1e-10);
}

TEST(BooleanCubeFunction, RestrictionValidation) {
  const auto f = fn::constant(3, 1.0);
  EXPECT_THROW(f.restrict_vars(0b1000, 0), InvalidArgument);
  EXPECT_THROW(f.restrict_vars(0b001, 0b010), InvalidArgument);
}

TEST(BooleanCubeFunction, FourierCoefficientRangeCheck) {
  const auto f = fn::constant(2, 0.0);
  EXPECT_THROW((void)f.fourier_coefficient(4), InvalidArgument);
}

}  // namespace
}  // namespace duti
