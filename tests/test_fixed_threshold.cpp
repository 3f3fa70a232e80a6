#include "testers/fixed_threshold.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/generators.hpp"
#include "util/confidence.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace duti {
namespace {

TEST(PoissonQuantile, ByHandValues) {
  // lambda = 0: P(X > 0) = 0, so any tail gives c = 0.
  EXPECT_EQ(poisson_upper_quantile(0.0, 0.1), 0u);
  // lambda = 1: P(X > 2) = 1 - e^-1(1 + 1 + 0.5) ~ 0.0803; P(X > 1) ~ 0.264.
  EXPECT_EQ(poisson_upper_quantile(1.0, 0.1), 2u);
  EXPECT_EQ(poisson_upper_quantile(1.0, 0.3), 1u);
  EXPECT_EQ(poisson_upper_quantile(1.0, 0.05), 3u);
}

TEST(PoissonHelpers, PmfAndTailConsistent) {
  const double lambda = 2.5;
  double total = 0.0;
  for (std::uint64_t c = 0; c <= 40; ++c) {
    total += poisson_pmf(lambda, c);
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
  for (std::uint64_t c = 0; c < 10; ++c) {
    EXPECT_NEAR(poisson_upper_tail(lambda, c) - poisson_upper_tail(lambda, c + 1),
                poisson_pmf(lambda, c + 1), 1e-10);
  }
}

TEST(PoissonQuantile, TailIsRespected) {
  const double lambda = 3.0, tail = 0.05;
  const auto c = poisson_upper_quantile(lambda, tail);
  EXPECT_LE(poisson_upper_tail(lambda, c), tail);
  if (c > 0) {
    EXPECT_GT(poisson_upper_tail(lambda, c - 1), tail);
  }
}

TEST(BinomialUpperTail, ByHand) {
  EXPECT_NEAR(binomial_upper_tail(2, 0.5, 1), 0.75, 1e-12);
  EXPECT_NEAR(binomial_upper_tail(2, 0.5, 2), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 0.3, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 0.3, 6), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 1.0, 5), 1.0);
}

TEST(FixedThresholdTester, Validation) {
  EXPECT_THROW(FixedThresholdTester({64, 8, 16, 0.5}, 0), InvalidArgument);
  EXPECT_THROW(FixedThresholdTester({64, 8, 16, 0.5}, 9), InvalidArgument);
  EXPECT_NO_THROW(FixedThresholdTester({64, 8, 16, 0.5}, 8));
}

TEST(FixedThresholdTester, CalibrationRealizesPStar) {
  // The randomized rule's rejection probability under the Poisson model is
  // exactly p*: P(X > c) + gamma P(X = c) = p*.
  const FixedThresholdTester tester({4096, 64, 64, 0.5}, 8);
  const double lambda = 64.0 * 63.0 / 2.0 / 4096.0;
  const double realized =
      poisson_upper_tail(lambda, tester.local_count_threshold()) +
      tester.local_boundary_gamma() *
          poisson_pmf(lambda, tester.local_count_threshold());
  EXPECT_NEAR(realized, tester.local_reject_probability(), 1e-9);
}

TEST(FixedThresholdTester, PStarIsSafeAndMaximal) {
  const unsigned k = 64;
  for (std::uint64_t t_param : {1ULL, 4ULL, 16ULL}) {
    const FixedThresholdTester tester({4096, k, 64, 0.5}, t_param);
    const double p = tester.local_reject_probability();
    EXPECT_LE(binomial_upper_tail(k, p, static_cast<int>(t_param)), 0.2);
    // Maximal: 5% more would break the budget.
    EXPECT_GT(binomial_upper_tail(k, std::min(1.0, p * 1.05 + 1e-6),
                                  static_cast<int>(t_param)),
              0.2);
  }
}

TEST(FixedThresholdTester, LocalBudgetGrowsWithT) {
  // Larger forced T allows each player a bigger rejection budget — the
  // "biased bits" mechanism of Theorem 1.3 in reverse.
  const FixedThresholdTester t1({4096, 64, 64, 0.5}, 1);
  const FixedThresholdTester t8({4096, 64, 64, 0.5}, 8);
  const FixedThresholdTester t32({4096, 64, 64, 0.5}, 32);
  EXPECT_LT(t1.local_reject_probability(), t8.local_reject_probability());
  EXPECT_LT(t8.local_reject_probability(), t32.local_reject_probability());
}

TEST(FixedThresholdTester, UniformSideSafeAcrossT) {
  const std::uint64_t n = 1024;
  const UniformSource uniform(n);
  for (std::uint64_t t_param : {1ULL, 2ULL, 8ULL, 32ULL}) {
    const FixedThresholdTester tester({n, 32, 48, 0.5}, t_param);
    SuccessCounter ok;
    for (int t = 0; t < 120; ++t) {
      Rng rng = make_rng(61, t_param, t);
      ok.record(tester.run(uniform, rng));
    }
    EXPECT_GE(ok.rate(), 0.6) << "T=" << t_param;
  }
}

TEST(FixedThresholdTester, LargerTNeedsFewerSamples) {
  // At fixed (n, k, q) chosen to be marginal, far-rejection should be
  // clearly better at T = 16 than at T = 1 (Theorem 1.3's phenomenon).
  const std::uint64_t n = 4096;
  const double eps = 0.5;
  const unsigned k = 64, q = 96;
  const FixedThresholdTester small_t({n, k, q, eps}, 1);
  const FixedThresholdTester large_t({n, k, q, eps}, 16);
  auto far_reject_rate = [&](const FixedThresholdTester& tester,
                             std::uint64_t seed) {
    SuccessCounter rejects;
    for (int t = 0; t < 150; ++t) {
      Rng far_rng = make_rng(seed, 1, t);
      const DistributionSource far(gen::paninski(n, eps, far_rng));
      Rng run_rng = make_rng(seed, 2, t);
      rejects.record(!tester.run(far, run_rng));
    }
    return rejects.rate();
  };
  EXPECT_GT(far_reject_rate(large_t, 62), far_reject_rate(small_t, 63) + 0.1);
}

TEST(FixedThresholdTester, ConcurrentConstructionMatchesSerial) {
  // Sweep points build testers concurrently, and construction evaluates
  // Poisson tails through log_factorial, so it must write no shared state:
  // under the sanitize-thread preset this test reports any such write
  // (std::lgamma's global signgam would be one). Every concurrent
  // construction must also agree with the serial one.
  const auto tester = [](std::size_t i) {
    return FixedThresholdTester(
        {4096, 64, static_cast<unsigned>(8 + 4 * i), 0.5},
        static_cast<std::uint64_t>(1 + i % 16));
  };
  constexpr std::size_t kTesters = 64;
  std::vector<std::uint64_t> serial(kTesters);
  for (std::size_t i = 0; i < kTesters; ++i) {
    serial[i] = tester(i).local_count_threshold();
  }
  std::vector<std::uint64_t> parallel(kTesters);
  ThreadPool pool(8);
  pool.parallel_for(kTesters, 1,
                    [&](std::size_t begin, std::size_t end, unsigned) {
                      for (std::size_t i = begin; i < end; ++i) {
                        parallel[i] = tester(i).local_count_threshold();
                      }
                    });
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace duti
