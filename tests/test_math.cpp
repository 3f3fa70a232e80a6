#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(LogDoubleFactorial, SmallValues) {
  struct Row {
    int n;
    double value;  // n!!
  };
  for (const Row& row : {Row{-1, 1}, Row{0, 1}, Row{1, 1}, Row{2, 2},
                         Row{3, 3}, Row{4, 8}, Row{5, 15}, Row{7, 105},
                         Row{9, 945}, Row{10, 3840}}) {
    EXPECT_NEAR(log_double_factorial(row.n), std::log(row.value), 1e-12)
        << "n=" << row.n;
  }
}

TEST(LogFactorial, MatchesLgammaBitForBit) {
  // log_factorial uses the reentrant lgamma_r; it must return exactly what
  // std::lgamma does, so every Poisson tail built on it is unchanged.
  for (int n = 0; n <= 5000; ++n) {
    EXPECT_EQ(log_factorial(n), std::lgamma(static_cast<double>(n) + 1.0))
        << "n=" << n;
  }
}

TEST(Binomial, KnownValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(5, -1), 0u);
}

TEST(Binomial, PascalIdentity) {
  for (int n = 2; n <= 30; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
    }
  }
}

TEST(LogBinomial, MatchesExact) {
  for (int n = 1; n <= 40; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(log_binomial(n, k),
                  std::log(static_cast<double>(binomial(n, k))), 1e-8);
    }
  }
}

TEST(LogBinomial, OutOfRangeIsMinusInfinity) {
  EXPECT_EQ(log_binomial(5, 6), -std::numeric_limits<double>::infinity());
}

TEST(DpowInt, MatchesStdPow) {
  for (double base : {0.5, 1.5, 2.0, 3.7}) {
    for (unsigned e = 0; e <= 20; ++e) {
      EXPECT_NEAR(dpow_int(base, e), std::pow(base, e),
                  1e-9 * std::pow(base, e));
    }
  }
}

TEST(FitLine, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLine, NoisyLineRecoversSlope) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(0.5 * i + ((i % 2 == 0) ? 0.1 : -0.1));
  }
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 0.01);
}

TEST(FitLine, DegenerateThrows) {
  EXPECT_THROW((void)fit_line({1.0, 1.0}, {2.0, 3.0}), InvalidArgument);
  EXPECT_THROW((void)fit_line({1.0}, {2.0}), InvalidArgument);
}

TEST(FitPowerLaw, ExactPowerLaw) {
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, -0.5));
  }
  const auto fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, -0.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
}

TEST(FitPowerLaw, RejectsNonPositive) {
  EXPECT_THROW((void)fit_power_law({1.0, -2.0}, {1.0, 1.0}), InvalidArgument);
  EXPECT_THROW((void)fit_power_law({1.0, 2.0}, {0.0, 1.0}), InvalidArgument);
}

TEST(MeanAndVariance, Basics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(sample_variance(v), 5.0 / 3.0, 1e-12);
  EXPECT_THROW((void)mean({}), InvalidArgument);
  EXPECT_THROW((void)sample_variance({1.0}), InvalidArgument);
}

}  // namespace
}  // namespace duti
