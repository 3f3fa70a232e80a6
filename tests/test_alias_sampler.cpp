#include "dist/alias_sampler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

std::vector<double> empirical(const AliasSampler& sampler, std::size_t trials,
                              Rng& rng) {
  std::vector<double> freq(sampler.size(), 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    ++freq[sampler.sample(rng)];
  }
  for (double& f : freq) f /= static_cast<double>(trials);
  return freq;
}

TEST(AliasSampler, UniformWeights) {
  const AliasSampler s(std::vector<double>(8, 1.0));
  Rng rng(1);
  const auto freq = empirical(s, 200000, rng);
  for (double f : freq) EXPECT_NEAR(f, 0.125, 0.01);
}

TEST(AliasSampler, SkewedWeights) {
  const AliasSampler s({1.0, 2.0, 3.0, 4.0});
  Rng rng(2);
  const auto freq = empirical(s, 400000, rng);
  EXPECT_NEAR(freq[0], 0.1, 0.01);
  EXPECT_NEAR(freq[1], 0.2, 0.01);
  EXPECT_NEAR(freq[2], 0.3, 0.01);
  EXPECT_NEAR(freq[3], 0.4, 0.01);
}

TEST(AliasSampler, ZeroWeightNeverSampled) {
  const AliasSampler s({1.0, 0.0, 1.0});
  Rng rng(3);
  for (int t = 0; t < 50000; ++t) {
    ASSERT_NE(s.sample(rng), 1u);
  }
}

TEST(AliasSampler, SingleElement) {
  const AliasSampler s({5.0});
  Rng rng(4);
  for (int t = 0; t < 100; ++t) {
    ASSERT_EQ(s.sample(rng), 0u);
  }
}

TEST(AliasSampler, ExtremeSkew) {
  // One element carries nearly all the mass.
  std::vector<double> w(100, 1e-6);
  w[37] = 1.0;
  const AliasSampler s(w);
  Rng rng(5);
  int heavy = 0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) {
    if (s.sample(rng) == 37u) ++heavy;
  }
  EXPECT_GT(static_cast<double>(heavy) / trials, 0.99);
}

TEST(AliasSampler, UnnormalizedWeightsAccepted) {
  const AliasSampler s({100.0, 300.0});
  Rng rng(6);
  const auto freq = empirical(s, 100000, rng);
  EXPECT_NEAR(freq[0], 0.25, 0.01);
  EXPECT_NEAR(freq[1], 0.75, 0.01);
}

TEST(AliasSampler, InvalidInputsThrow) {
  EXPECT_THROW(AliasSampler({}), InvalidArgument);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), InvalidArgument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), InvalidArgument);
  // The total overflows to inf: the scale would be 0 and the table uniform.
  EXPECT_THROW(AliasSampler({1e308, 1e308, 1e308, 1.0}), InvalidArgument);
}

TEST(AliasSampler, ProbTablesWellFormed) {
  const AliasSampler s({0.1, 0.2, 0.3, 0.4});
  // A threshold of 2^53 keeps its column on every raw.
  for (const std::uint64_t t : s.threshold_table()) {
    EXPECT_LE(t, std::uint64_t{1} << 53);
  }
  for (const std::uint64_t a : s.alias_table()) EXPECT_LT(a, s.size());
}

TEST(AliasSampler, ChiSquareGoodnessOfFit) {
  // A formal chi-square test at a loose significance bar.
  const std::vector<double> w{0.05, 0.15, 0.3, 0.5};
  const AliasSampler s(w);
  Rng rng(7);
  const std::size_t trials = 200000;
  std::vector<std::size_t> counts(w.size(), 0);
  for (std::size_t t = 0; t < trials; ++t) ++counts[s.sample(rng)];
  double chi2 = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = w[i] * static_cast<double>(trials);
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  // 3 degrees of freedom; P(chi2 > 16.27) ~ 0.001.
  EXPECT_LT(chi2, 16.27);
}

}  // namespace
}  // namespace duti
