#include "testers/centralized.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "dist/generators.hpp"
#include <cmath>
#include <tuple>

#include "success_rates.hpp"
#include "testers/collision.hpp"
#include "util/confidence.hpp"

namespace duti {
namespace {

using test::success_rates;

class CentralizedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(CentralizedSweep, CollisionTesterSucceedsAtSufficientQ) {
  const auto [n, eps] = GetParam();
  const unsigned q = CentralizedCollisionTester::sufficient_q(n, eps);
  const CentralizedCollisionTester tester(n, eps, q);
  const auto [u, f] =
      success_rates(tester, n, eps, 200, derive_seed(100, n));
  EXPECT_GE(u, 0.75) << "n=" << n << " eps=" << eps << " q=" << q;
  EXPECT_GE(f, 0.75) << "n=" << n << " eps=" << eps << " q=" << q;
}

TEST_P(CentralizedSweep, CoincidenceTesterSucceedsAtSufficientQ) {
  const auto [n, eps] = GetParam();
  // The coincidence statistic has a somewhat larger constant than the
  // collision statistic; give it c = 6 instead of the default 3.
  const unsigned q = CentralizedCollisionTester::sufficient_q(n, eps, 6.0);
  const PaninskiCoincidenceTester tester(n, eps, q);
  const auto [u, f] =
      success_rates(tester, n, eps, 200, derive_seed(101, n));
  EXPECT_GE(u, 0.75);
  EXPECT_GE(f, 0.75);
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndEps, CentralizedSweep,
    ::testing::Values(std::make_tuple(std::uint64_t{128}, 0.5),
                      std::make_tuple(std::uint64_t{512}, 0.5),
                      std::make_tuple(std::uint64_t{512}, 0.3),
                      std::make_tuple(std::uint64_t{2048}, 0.4)));

TEST(CentralizedCollisionTester, FailsWithFarTooFewSamples) {
  // With q = 3 on a large domain, collisions are so rare the tester cannot
  // distinguish: far-rejection stays near zero.
  const std::uint64_t n = 1 << 14;
  const double eps = 0.3;
  const CentralizedCollisionTester tester(n, eps, 3);
  const auto [u, f] = success_rates(tester, n, eps, 300, 777);
  EXPECT_GE(u, 0.9);  // accepts uniform trivially
  EXPECT_LE(f, 0.3);  // but cannot reject far
}

TEST(CentralizedCollisionTester, SufficientQScaling) {
  // q ~ sqrt(n)/eps^2 shape of the static helper.
  const auto q1 = CentralizedCollisionTester::sufficient_q(1 << 10, 0.5);
  const auto q2 = CentralizedCollisionTester::sufficient_q(1 << 12, 0.5);
  EXPECT_NEAR(static_cast<double>(q2) / q1, 2.0, 0.1);
  const auto q3 = CentralizedCollisionTester::sufficient_q(1 << 10, 0.25);
  EXPECT_NEAR(static_cast<double>(q3) / q1, 4.0, 0.1);
}

TEST(CentralizedTesters, CallerSamplesAreCheckedAgainstTheDomain) {
  // Caller samples go straight into the distinct count and the chi^2 fold:
  // the top cell n - 1 is counted, and a sample >= n throws instead of
  // indexing past the counts plane or counting as a cell. At n = 4, q = 3
  // the coincidence tester accepts above 2.24 distinct values.
  const PaninskiCoincidenceTester coincidence(4, 0.5, 3);
  EXPECT_TRUE(coincidence.accept(std::vector<std::uint64_t>{3, 2, 1}));
  EXPECT_FALSE(coincidence.accept(std::vector<std::uint64_t>{3, 3, 1}));
  EXPECT_THROW((void)coincidence.accept(std::vector<std::uint64_t>{5, 5, 9}),
               InvalidArgument);
  const ChiSquaredTester chi(4, 0.5, 3);
  EXPECT_THROW((void)chi.statistic(std::vector<std::uint64_t>{0, 4, 1}),
               InvalidArgument);
}

TEST(CentralizedTesters, RunDecidesOnItsDrawsStatistic) {
  // run counts its q draws' pairs without keeping the draws: it must accept
  // exactly when those draws' statistic is below the threshold — the pair
  // count below C(q,2)/n (1 + eps^2/2), chi^2 below q eps^2/2 - 1 — and
  // leave the stream where sample_many leaves it.
  const std::uint64_t n = 256;
  const unsigned q = 48;
  const double eps = 0.5;
  const CentralizedCollisionTester collision(n, eps, q);
  const ChiSquaredTester chi(n, eps, q);
  const double pair_threshold =
      expected_collision_pairs_uniform(static_cast<double>(n), q) *
      (1.0 + 0.5 * eps * eps);
  Rng gen_rng(31);
  const UniformSource uniform(n);
  const DistributionSource far(gen::paninski(n, eps, gen_rng));
  const std::vector<const SampleSource*> sources = {&uniform, &far};
  std::vector<std::uint64_t> samples;
  for (const SampleSource* source : sources) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng drawn(seed), ran_collision(seed), ran_chi(seed);
      source->sample_many(drawn, q, samples);
      EXPECT_EQ(collision.run(*source, ran_collision),
                static_cast<double>(collision_pairs(samples, n)) <
                    pair_threshold);
      EXPECT_EQ(chi.run(*source, ran_chi),
                chi.statistic(samples) < 0.5 * q * eps * eps - 1.0);
      const std::uint64_t next = drawn();
      EXPECT_EQ(ran_collision(), next);
      EXPECT_EQ(ran_chi(), next);
    }
  }
}

TEST(CentralizedCollisionTester, DomainMismatchThrows) {
  const CentralizedCollisionTester tester(100, 0.5, 10);
  const UniformSource source(200);
  Rng rng(1);
  EXPECT_THROW((void)tester.run(source, rng), InvalidArgument);
}

TEST(PaninskiCoincidenceTester, DistinctCountDetectsFar) {
  const std::uint64_t n = 256;
  const double eps = 0.7;
  const unsigned q = CentralizedCollisionTester::sufficient_q(n, eps);
  const PaninskiCoincidenceTester tester(n, eps, q);
  const auto [u, f] = success_rates(tester, n, eps, 300, 888);
  EXPECT_GE(u, 0.7);
  EXPECT_GE(f, 0.7);
}

TEST(ChiSquaredTester, StatisticMeanUnderUniform) {
  // E[S] = -1 under uniform (see header); empirical average should agree.
  const std::uint64_t n = 256;
  const unsigned q = 64;
  const ChiSquaredTester tester(n, 0.5, q);
  const UniformSource uniform(n);
  Rng rng(2024);
  double acc = 0.0;
  const int trials = 20000;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    uniform.sample_many(rng, q, samples);
    acc += tester.statistic(samples);
  }
  EXPECT_NEAR(acc / trials, -1.0, 0.25);
}

TEST(ChiSquaredTester, StatisticMeanUnderFar) {
  // E[S] = q n ||mu-U||_2^2 - n ||mu||_2^2; check on a fixed Paninski far
  // distribution.
  const std::uint64_t n = 256;
  const unsigned q = 64;
  const double eps = 0.5;
  Rng gen_rng(2025);
  const auto far = gen::paninski(n, eps, gen_rng);
  const double expected =
      static_cast<double>(q) * static_cast<double>(n) *
          (l2_norm_squared(far) - 1.0 / static_cast<double>(n)) -
      static_cast<double>(n) * l2_norm_squared(far);
  const ChiSquaredTester tester(n, eps, q);
  const DistributionSource source(far);
  Rng rng(2026);
  double acc = 0.0;
  const int trials = 20000;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    source.sample_many(rng, q, samples);
    acc += tester.statistic(samples);
  }
  EXPECT_NEAR(acc / trials, expected, 0.1 * std::max(1.0, std::fabs(expected)));
}

class ChiSquaredSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ChiSquaredSweep, SucceedsAtSufficientQ) {
  const auto [n, eps] = GetParam();
  const unsigned q = CentralizedCollisionTester::sufficient_q(n, eps);
  const ChiSquaredTester tester(n, eps, q);
  const auto [u, f] = success_rates(tester, n, eps, 200, derive_seed(102, n));
  EXPECT_GE(u, 0.75) << "n=" << n << " eps=" << eps;
  EXPECT_GE(f, 0.75) << "n=" << n << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndEps, ChiSquaredSweep,
    ::testing::Values(std::make_tuple(std::uint64_t{128}, 0.5),
                      std::make_tuple(std::uint64_t{512}, 0.5),
                      std::make_tuple(std::uint64_t{2048}, 0.4)));

TEST(ChiSquaredTester, FailsWithFarTooFewSamples) {
  const std::uint64_t n = 1 << 14;
  const ChiSquaredTester tester(n, 0.3, 8);
  const auto [u, f] = success_rates(tester, n, 0.3, 300, 779);
  EXPECT_GE(u, 0.6);
  EXPECT_LE(f, 0.4);
}

TEST(Testers, RejectNonUniformZipf) {
  // Uniformity testers must also reject far distributions outside the
  // Paninski family; Zipf(1) on n=512 is far from uniform.
  const std::uint64_t n = 512;
  const auto zipf = gen::zipf(n, 1.0);
  ASSERT_GT(zipf.l1_from_uniform(), 0.5);
  const unsigned q = CentralizedCollisionTester::sufficient_q(n, 0.5);
  const CentralizedCollisionTester tester(n, 0.5, q);
  const DistributionSource source(zipf);
  SuccessCounter rejects;
  for (int t = 0; t < 100; ++t) {
    Rng rng = make_rng(999, t);
    rejects.record(!tester.run(source, rng));
  }
  EXPECT_GE(rejects.rate(), 0.9);
}

}  // namespace
}  // namespace duti
