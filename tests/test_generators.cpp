#include "dist/generators.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(Paninski, ExactlyEpsFar) {
  Rng rng(1);
  for (double eps : {0.1, 0.25, 0.5, 1.0}) {
    const auto d = gen::paninski(100, eps, rng);
    EXPECT_NEAR(d.l1_from_uniform(), eps, 1e-12) << "eps=" << eps;
  }
}

TEST(Paninski, PairMassPreserved) {
  Rng rng(2);
  const std::size_t n = 20;
  const auto d = gen::paninski(n, 0.5, rng);
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(d.pmf(2 * i) + d.pmf(2 * i + 1), 2.0 / n, 1e-12);
  }
}

TEST(Paninski, WithSignsDeterministic) {
  const std::vector<int> signs{1, -1, 1, -1, 1};
  const auto d = gen::paninski_with_signs(10, 0.3, signs);
  EXPECT_NEAR(d.pmf(0), (1.0 + 0.3) / 10.0, 1e-12);
  EXPECT_NEAR(d.pmf(1), (1.0 - 0.3) / 10.0, 1e-12);
  EXPECT_NEAR(d.pmf(2), (1.0 - 0.3) / 10.0, 1e-12);
  EXPECT_NEAR(d.pmf(3), (1.0 + 0.3) / 10.0, 1e-12);
}

TEST(Paninski, InvalidArgsThrow) {
  Rng rng(3);
  EXPECT_THROW(gen::paninski(7, 0.5, rng), InvalidArgument);  // odd n
  EXPECT_THROW(gen::paninski_with_signs(10, 0.5, {1, 1}), InvalidArgument);
  EXPECT_THROW((void)gen::paninski_with_signs(4, 0.5, {1, 2}), InvalidArgument);
}

TEST(Zipf, DecreasingAndNormalized) {
  const auto d = gen::zipf(50, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    total += d.pmf(i);
    if (i > 0) {
      EXPECT_LE(d.pmf(i), d.pmf(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ZeroExponentIsUniform) {
  const auto d = gen::zipf(10, 0.0);
  EXPECT_NEAR(d.l1_from_uniform(), 0.0, 1e-12);
}

TEST(Bimodal, ExactDistance) {
  for (double delta : {0.1, 0.5, 1.0}) {
    const auto d = gen::bimodal(20, delta);
    EXPECT_NEAR(d.l1_from_uniform(), delta, 1e-12);
  }
}

TEST(DiracMixture, Distance) {
  const std::size_t n = 10;
  const double w = 0.3;
  const auto d = gen::dirac_mixture(n, 4, w);
  EXPECT_NEAR(d.pmf(4), (1.0 - w) / n + w, 1e-12);
  EXPECT_NEAR(d.l1_from_uniform(), 2.0 * w * (1.0 - 1.0 / n), 1e-12);
}

TEST(RandomPerturbation, ExactlyEpsFar) {
  Rng rng(6);
  for (double eps : {0.1, 0.5, 1.0}) {
    const auto d = gen::random_perturbation(64, eps, rng);
    EXPECT_NEAR(d.l1_from_uniform(), eps, 1e-12);
  }
}

TEST(RandomPerturbation, DiffersAcrossDraws) {
  Rng rng(7);
  const auto a = gen::random_perturbation(64, 0.5, rng);
  const auto b = gen::random_perturbation(64, 0.5, rng);
  EXPECT_GT(a.l1_distance(b), 0.0);
}

}  // namespace
}  // namespace duti
