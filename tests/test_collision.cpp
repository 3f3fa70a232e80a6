#include "testers/collision.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dist/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

using Samples = std::vector<std::uint64_t>;

TEST(CollisionPairs, ByHand) {
  EXPECT_EQ(collision_pairs(Samples{1, 2, 3}, 10), 0u);
  EXPECT_EQ(collision_pairs(Samples{1, 1, 2}, 10), 1u);
  EXPECT_EQ(collision_pairs(Samples{5, 5, 5}, 10), 3u);
  EXPECT_EQ(collision_pairs(Samples{5, 5, 5, 5}, 10), 6u);
  EXPECT_EQ(collision_pairs(Samples{1, 2, 1, 2}, 10), 2u);
  EXPECT_EQ(collision_pairs(Samples{}, 10), 0u);
  EXPECT_EQ(collision_pairs(Samples{9}, 10), 0u);
}

TEST(CollisionPairs, MatchesQuadraticBruteForce) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> samples(40);
    for (auto& s : samples) s = rng.next_below(10);
    std::uint64_t brute = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t j = i + 1; j < samples.size(); ++j) {
        if (samples[i] == samples[j]) ++brute;
      }
    }
    ASSERT_EQ(collision_pairs(samples, 10), brute);
  }
}

TEST(DistinctValues, ByHand) {
  EXPECT_EQ(distinct_values(Samples{1, 1, 2, 3, 3}, 8), 3u);
  EXPECT_EQ(distinct_values(Samples{}, 8), 0u);
  EXPECT_EQ(distinct_values(Samples{7, 7, 7}, 8), 1u);
}

TEST(CollisionStatistics, SamplesMustLieInTheDomain) {
  // Domain 4 and the 2^22 cap tally into the per-thread plane; one past
  // the cap sorts. On each path the top cell, domain - 1, is counted, and
  // the first value past it throws InvalidArgument naming the sample and
  // the domain. The throw comes after two increments of the top cell, so
  // the follow-up counts also check that the plane was left clean.
  struct Stat {
    const char* name;
    std::uint64_t (*count)(std::span<const std::uint64_t>, std::uint64_t);
    std::uint64_t expected;  // its value on {top, top, 0}
  };
  const std::vector<Stat> stats = {{"collision_pairs", &collision_pairs, 1},
                                   {"distinct_values", &distinct_values, 2}};
  for (const std::uint64_t domain :
       {std::uint64_t{4}, kMaxTallyPlaneDomain, kMaxTallyPlaneDomain + 1}) {
    const std::uint64_t top = domain - 1;
    for (const auto& [name, count, expected] : stats) {
      SCOPED_TRACE(std::string(name) + " domain=" + std::to_string(domain));
      EXPECT_EQ(count(Samples{top, top, 0}, domain), expected);
      try {
        (void)count(Samples{top, top, domain}, domain);
        ADD_FAILURE() << "sample = domain was counted";
      } catch (const InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("sample " + std::to_string(domain)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("[0, " + std::to_string(domain) + ")"),
                  std::string::npos)
            << what;
      }
      EXPECT_EQ(count(Samples{top, top, 0}, domain), expected);
    }
  }
  // A fresh thread's plane holds exactly `domain` cells, so an unchecked
  // index past it would write out of bounds.
  std::thread([] {
    EXPECT_THROW((void)collision_pairs(Samples{5, 5, 9}, 4), InvalidArgument);
    EXPECT_THROW((void)distinct_values(Samples{5, 5, 9}, 4), InvalidArgument);
  }).join();
}

TEST(L2NormSquared, KnownValues) {
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution::uniform(100)), 0.01,
              1e-12);
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution({1.0, 0.0})), 1.0, 1e-12);
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution({0.5, 0.5})), 0.5, 1e-12);
}

TEST(ExpectedCollisions, UniformFormula) {
  EXPECT_NEAR(expected_collision_pairs_uniform(100.0, 10), 45.0 / 100.0,
              1e-12);
  EXPECT_NEAR(expected_collision_pairs(DiscreteDistribution::uniform(100), 10),
              expected_collision_pairs_uniform(100.0, 10), 1e-12);
}

TEST(ExpectedCollisions, EmpiricalAgreement) {
  Rng rng(2);
  const auto dist = gen::zipf(50, 1.0);
  const unsigned q = 30;
  const double expected = expected_collision_pairs(dist, q);
  double acc = 0.0;
  const int trials = 20000;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    dist.sample_many(rng, q, samples);
    acc += static_cast<double>(collision_pairs(samples, 50));
  }
  EXPECT_NEAR(acc / trials, expected, 0.05 * expected);
}

TEST(FarL2LowerBound, CauchySchwarzHoldsOnConcreteFamilies) {
  // Every eps-far distribution must have ||mu||_2^2 >= (1+eps^2)/n.
  Rng rng(3);
  const std::size_t n = 64;
  for (double eps : {0.2, 0.5, 1.0}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto far = gen::paninski(n, eps, rng);
      EXPECT_GE(l2_norm_squared(far),
                far_l2_lower_bound(static_cast<double>(n), eps) - 1e-12);
    }
    const auto bim = gen::bimodal(n, eps);
    EXPECT_GE(l2_norm_squared(bim),
              far_l2_lower_bound(static_cast<double>(n), eps) - 1e-12);
  }
}

TEST(FarL2LowerBound, PaninskiIsExtremal) {
  // The Paninski family achieves the bound with equality: it is the
  // hardest eps-far family (this is why the paper uses it).
  Rng rng(4);
  const std::size_t n = 128;
  const double eps = 0.4;
  const auto far = gen::paninski(n, eps, rng);
  EXPECT_NEAR(l2_norm_squared(far),
              far_l2_lower_bound(static_cast<double>(n), eps), 1e-12);
}

TEST(CollisionVariance, MatchesEmpiricalUnderUniform) {
  Rng rng(5);
  const double n = 64.0;
  const unsigned q = 16;
  const double expected_var = collision_variance_uniform(n, q);
  std::vector<std::uint64_t> samples(q);
  double s1 = 0.0, s2 = 0.0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    for (auto& s : samples) s = rng.next_below(64);
    const auto c = static_cast<double>(collision_pairs(samples, 64));
    s1 += c;
    s2 += c * c;
  }
  const double mean_c = s1 / trials;
  const double var_c = s2 / trials - mean_c * mean_c;
  EXPECT_NEAR(mean_c, expected_collision_pairs_uniform(n, q), 0.05);
  EXPECT_NEAR(var_c, expected_var, 0.05 * expected_var);
}

TEST(Collision, ArgumentValidation) {
  EXPECT_THROW((void)expected_collision_pairs_uniform(0.5, 5), InvalidArgument);
  EXPECT_THROW((void)expected_collision_pairs_uniform(10.0, 1), InvalidArgument);
  EXPECT_THROW((void)far_l2_lower_bound(10.0, 3.0), InvalidArgument);
  EXPECT_THROW((void)collision_variance_uniform(10.0, 0), InvalidArgument);
}

}  // namespace
}  // namespace duti
