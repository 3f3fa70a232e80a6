#include "testers/identity_reduction.hpp"

#include <gtest/gtest.h>

#include "dist/generators.hpp"
#include "testers/centralized.hpp"
#include "util/confidence.hpp"

namespace duti {
namespace {

TEST(IdentityReduction, DyadicTargetIsExactlyUniform) {
  // eta with dyadic masses maps to exactly uniform when the expansion size
  // is the common denominator.
  const DiscreteDistribution eta({0.5, 0.25, 0.25});
  const IdentityReduction red(eta, 8);
  EXPECT_NEAR(red.rounding_error(), 0.0, 1e-12);
}

TEST(IdentityReduction, CellCountsSumExactly) {
  // Every one of the 1000 cells belongs to a bucket: mapped eta puts mass
  // on each.
  const auto eta = gen::zipf(17, 1.0);
  const IdentityReduction red(eta, 1000);
  const auto mapped = red.mapped_distribution(eta);
  ASSERT_EQ(mapped.domain_size(), 1000u);
  for (std::size_t j = 0; j < 1000; ++j) EXPECT_GT(mapped.pmf(j), 0.0) << j;
}

TEST(IdentityReduction, RoundingErrorShrinksWithExpansion) {
  const auto eta = gen::zipf(10, 1.0);
  const IdentityReduction coarse(eta, 50);
  const IdentityReduction fine(eta, 5000);
  EXPECT_LT(fine.rounding_error(), coarse.rounding_error());
  EXPECT_LT(fine.rounding_error(), 0.01);
}

TEST(IdentityReduction, MappedDistributionMasses) {
  const DiscreteDistribution eta({0.5, 0.5});
  const DiscreteDistribution mu({0.9, 0.1});
  const IdentityReduction red(eta, 4);
  const auto mapped = red.mapped_distribution(mu);
  // Bucket 0 = cells {0,1} each with 0.45; bucket 1 = cells {2,3} each 0.05.
  EXPECT_NEAR(mapped.pmf(0), 0.45, 1e-12);
  EXPECT_NEAR(mapped.pmf(1), 0.45, 1e-12);
  EXPECT_NEAR(mapped.pmf(2), 0.05, 1e-12);
  EXPECT_NEAR(mapped.pmf(3), 0.05, 1e-12);
}

TEST(IdentityReduction, L1DistancePreservedExactlyForDyadicEta) {
  const DiscreteDistribution eta({0.5, 0.25, 0.25});
  const DiscreteDistribution mu({0.3, 0.3, 0.4});
  const IdentityReduction red(eta, 8);
  const auto mapped_mu = red.mapped_distribution(mu);
  const auto mapped_eta = red.mapped_distribution(eta);
  EXPECT_NEAR(mapped_mu.l1_distance(mapped_eta), mu.l1_distance(eta), 1e-12);
  // And mapped eta is uniform, so distance-from-uniform equals it too.
  EXPECT_NEAR(mapped_mu.l1_from_uniform(), mu.l1_distance(eta), 1e-12);
}

TEST(IdentityReduction, MapSamplesLandInTheRightBucket) {
  const DiscreteDistribution eta({0.25, 0.75});
  const IdentityReduction red(eta, 8);
  Rng rng(2);
  // Bucket 0 is cells {0, 1}: 0.25 of 8.
  for (int t = 0; t < 1000; ++t) {
    const auto cell0 = red.map(0, rng);
    EXPECT_LT(cell0, 2u);
    const auto cell1 = red.map(1, rng);
    EXPECT_GE(cell1, 2u);
    EXPECT_LT(cell1, 8u);
  }
}

TEST(IdentityReduction, EndToEndIdentityTesting) {
  // Test "is mu = eta?" by mapping samples and running the uniformity
  // tester on the expanded domain — the paper's completeness reduction.
  Rng setup_rng(3);
  const std::size_t n = 64;
  const auto eta = gen::zipf(n, 1.0);
  const std::uint64_t expanded = 4096;
  const IdentityReduction red(eta, expanded);
  ASSERT_LT(red.rounding_error(), 0.05);

  const double eps = 0.5;
  const unsigned q = CentralizedCollisionTester::sufficient_q(expanded, eps);
  const CentralizedCollisionTester tester(expanded, eps, q);

  // Case 1: mu == eta -> mapped samples near-uniform -> accept.
  SuccessCounter accepts;
  const DistributionSource eta_source(eta);
  const ReducedSource reduced_eta(eta_source, red);
  for (int t = 0; t < 60; ++t) {
    Rng rng = make_rng(31, t);
    accepts.record(tester.run(reduced_eta, rng));
  }
  EXPECT_GE(accepts.rate(), 0.7);

  // Case 2: mu far from eta (uniform is far from zipf here) -> reject.
  SuccessCounter rejects;
  const DistributionSource mu_source(DiscreteDistribution::uniform(n));
  ASSERT_GT(DiscreteDistribution::uniform(n).l1_distance(eta), eps);
  const ReducedSource reduced_mu(mu_source, red);
  for (int t = 0; t < 60; ++t) {
    Rng rng = make_rng(32, t);
    rejects.record(!tester.run(reduced_mu, rng));
  }
  EXPECT_GE(rejects.rate(), 0.7);
}

TEST(IdentityReduction, Validation) {
  const DiscreteDistribution eta({0.5, 0.5});
  EXPECT_THROW(IdentityReduction(eta, 1), InvalidArgument);
  const IdentityReduction red(eta, 4);
  Rng rng(4);
  EXPECT_THROW((void)red.map(5, rng), InvalidArgument);
}

TEST(ReducedSource, ReportsExpandedDomain) {
  const DiscreteDistribution eta({0.5, 0.5});
  const IdentityReduction red(eta, 16);
  const DistributionSource inner(eta);
  const ReducedSource source(inner, red);
  EXPECT_EQ(source.domain_size(), 16u);
}

}  // namespace
}  // namespace duti
