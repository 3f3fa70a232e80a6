// Counts-kernel validation (DESIGN.md section 8): SampleSource::sample_counts
// must draw per-element histograms from the SAME distribution as tallied
// sample_many draws — exactly for the generic fallback (same RNG stream),
// statistically (chi-squared GOF) for the direct multinomial kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "dist/count_samplers.hpp"
#include "dist/discrete_distribution.hpp"
#include "dist/nu_z.hpp"
#include "sim/sample_source.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

std::uint64_t total(const std::vector<std::uint64_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

// One-sample chi-squared GOF statistic against expected cell masses.
double chi_squared_gof(const std::vector<std::uint64_t>& observed,
                       const std::vector<double>& expected) {
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double d = static_cast<double>(observed[i]) - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

// Two-sample chi-squared statistic: under a common distribution,
// sum (a_i - b_i)^2 / (a_i + b_i) is approximately chi-squared with
// (#cells - 1) degrees of freedom when the totals match.
double chi_squared_two_sample(const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b) {
  double stat = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double s = static_cast<double>(a[i] + b[i]);
    if (s == 0.0) continue;
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    stat += d * d / s;
  }
  return stat;
}

// Generous acceptance bound: mean + 5 standard deviations of a chi-squared
// with `df` degrees of freedom. Seeds are fixed, so the tests are
// deterministic; the slack only guards the chosen seeds' luck.
double chi_squared_bound(double df) { return df + 5.0 * std::sqrt(2.0 * df); }

NuZ make_nuz(unsigned ell, double eps, std::uint64_t seed) {
  Rng rng(seed);
  return NuZ(CubeDomain(ell), PerturbationVector::random(ell, rng), eps);
}

TEST(UniformCounts, KernelPreservesTotalAndIsDeterministic) {
  const UniformSource source(64);
  std::vector<std::uint64_t> a, b;
  Rng r1(7), r2(7);
  source.sample_counts(r1, 4096, a);
  source.sample_counts(r2, 4096, b);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(total(a), 4096u);
  EXPECT_EQ(a, b);  // same seed, same histogram
}

TEST(UniformCounts, KernelMatchesPerSampleDistribution) {
  // Aggregate many trials through each path and compare the resulting
  // histograms with a two-sample chi-squared test.
  const std::uint64_t n = 64;
  const std::size_t draws = 4096;
  const int trials = 32;
  const UniformSource source(n);
  std::vector<std::uint64_t> kernel_total(n, 0);
  std::vector<std::uint64_t> sample_total(n, 0);
  Rng kernel_rng(11);
  Rng sample_rng(12);
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    source.sample_counts(kernel_rng, draws, counts);
    for (std::uint64_t i = 0; i < n; ++i) kernel_total[i] += counts[i];
    source.sample_many(sample_rng, draws, samples);
    for (const std::uint64_t s : samples) ++sample_total[s];
  }
  const double stat = chi_squared_two_sample(kernel_total, sample_total);
  EXPECT_LT(stat, chi_squared_bound(static_cast<double>(n - 1)));
}

TEST(UniformCounts, SmallDrawCountFallsBackBitExactly) {
  // draws < n uses the per-sample tally path, consuming the RNG exactly
  // like sample_many.
  const UniformSource source(256);
  Rng counts_rng(21), manual_rng(21);
  std::vector<std::uint64_t> counts;
  source.sample_counts(counts_rng, 100, counts);
  std::vector<std::uint64_t> samples;
  source.sample_many(manual_rng, 100, samples);
  std::vector<std::uint64_t> manual(256, 0);
  for (const std::uint64_t s : samples) ++manual[s];
  EXPECT_EQ(counts, manual);
  EXPECT_EQ(counts_rng(), manual_rng());  // streams aligned
}

TEST(NuZCounts, KernelPreservesTotal) {
  const NuZSource source(make_nuz(5, 0.5, 3));
  std::vector<std::uint64_t> counts;
  Rng rng(9);
  source.sample_counts(rng, 4096, counts);
  ASSERT_EQ(counts.size(), source.domain_size());
  EXPECT_EQ(total(counts), 4096u);
}

TEST(NuZCounts, KernelMatchesExactPmf) {
  // One-sample GOF against nu_z's exact pmf, aggregated over trials.
  const NuZ nu = make_nuz(5, 0.5, 4);
  const NuZSource source(nu);
  const std::uint64_t universe = source.domain_size();
  const std::size_t draws = 4096;
  const int trials = 32;
  std::vector<std::uint64_t> observed(universe, 0);
  Rng rng(31);
  std::vector<std::uint64_t> counts;
  for (int t = 0; t < trials; ++t) {
    source.sample_counts(rng, draws, counts);
    for (std::uint64_t i = 0; i < universe; ++i) observed[i] += counts[i];
  }
  const double grand =
      static_cast<double>(draws) * static_cast<double>(trials);
  std::vector<double> expected(universe);
  for (std::uint64_t i = 0; i < universe; ++i) {
    expected[i] = grand * nu.pmf(i);
  }
  const double stat = chi_squared_gof(observed, expected);
  EXPECT_LT(stat, chi_squared_bound(static_cast<double>(universe - 1)));
}

TEST(NuZCounts, KernelMatchesPerSampleDistribution) {
  const NuZSource source(make_nuz(5, 0.5, 5));
  const std::uint64_t universe = source.domain_size();
  const std::size_t draws = 4096;
  const int trials = 32;
  std::vector<std::uint64_t> kernel_total(universe, 0);
  std::vector<std::uint64_t> sample_total(universe, 0);
  Rng kernel_rng(41);
  Rng sample_rng(42);
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    source.sample_counts(kernel_rng, draws, counts);
    for (std::uint64_t i = 0; i < universe; ++i) kernel_total[i] += counts[i];
    source.sample_many(sample_rng, draws, samples);
    for (const std::uint64_t s : samples) ++sample_total[s];
  }
  const double stat = chi_squared_two_sample(kernel_total, sample_total);
  EXPECT_LT(stat, chi_squared_bound(static_cast<double>(universe - 1)));
}

TEST(GenericCounts, DefaultPathTalliesSampleManyBitExactly) {
  // Sources without a direct kernel (here: DistributionSource) tally their
  // own sample_many, so the histogram is bit-exact against a manual tally.
  const std::vector<std::uint64_t> weights{5, 1, 0, 3, 7, 2, 2, 4};
  std::vector<double> pmf;
  for (const std::uint64_t w : weights) {
    pmf.push_back(static_cast<double>(w) / 24.0);
  }
  const DistributionSource source{DiscreteDistribution(pmf)};
  Rng counts_rng(51), manual_rng(51);
  std::vector<std::uint64_t> counts;
  source.sample_counts(counts_rng, 500, counts);
  std::vector<std::uint64_t> samples;
  source.sample_many(manual_rng, 500, samples);
  std::vector<std::uint64_t> manual(weights.size(), 0);
  for (const std::uint64_t s : samples) ++manual[s];
  EXPECT_EQ(counts, manual);
  EXPECT_EQ(counts[2], 0u);  // zero-weight element never drawn
}

TEST(Counts, OversizedDomainThrowsCapacityError) {
  const UniformSource source(kMaxCountedDomain + 1);
  Rng rng(1);
  std::vector<std::uint64_t> counts;
  EXPECT_THROW(source.sample_counts(rng, kMaxCountedDomain + 2, counts),
               CapacityError);
}

TEST(BinomialSample, MomentsAcrossAllRegimes) {
  // (n, p) chosen to land in each regime of the sampler: Bernoulli loop,
  // waiting time, Beta-split recursion, and the p > 1/2 reflection.
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {{12, 0.3}, {1000, 0.01}, {100000, 0.4}, {500, 0.9}};
  Rng rng(61);
  const int reps = 3000;
  for (const Case& c : cases) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto k = static_cast<double>(binomial_sample(rng, c.n, c.p));
      ASSERT_LE(k, static_cast<double>(c.n));
      sum += k;
      sum_sq += k * k;
    }
    const double mean = sum / reps;
    const double var = sum_sq / reps - mean * mean;
    const double true_mean = static_cast<double>(c.n) * c.p;
    const double true_var = true_mean * (1.0 - c.p);
    // Mean within 5 standard errors; variance within 25%.
    const double se = std::sqrt(true_var / reps);
    EXPECT_NEAR(mean, true_mean, 5.0 * se) << c.n << " " << c.p;
    EXPECT_NEAR(var, true_var, 0.25 * true_var) << c.n << " " << c.p;
  }
}

TEST(BinomialSample, EdgeCases) {
  Rng rng(71);
  EXPECT_EQ(binomial_sample(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial_sample(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial_sample(rng, 100, 1.0), 100u);
  EXPECT_THROW((void)binomial_sample(rng, 10, 1.5), InvalidArgument);
}

TEST(BinomialSplitCounts, PreservesTotalOverRange) {
  Rng rng(81);
  std::uint64_t sum = 0;
  std::uint64_t cells = 0;
  binomial_split_counts(rng, 10000, 0, 97,
                        [&](std::uint64_t cell, std::uint64_t c) {
                          EXPECT_LT(cell, 97u);
                          EXPECT_GT(c, 0u);
                          sum += c;
                          ++cells;
                        });
  EXPECT_EQ(sum, 10000u);
  EXPECT_LE(cells, 97u);
}

}  // namespace
}  // namespace duti
