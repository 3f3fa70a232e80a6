#include "dist/nu_z.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(PerturbationVector, DefaultAllPlus) {
  const PerturbationVector z(3);
  for (std::uint64_t x = 0; x < 8; ++x) EXPECT_EQ(z.sign(x), +1);
}

TEST(PerturbationVector, SetAndGet) {
  PerturbationVector z(3);
  z.set_sign(5, -1);
  EXPECT_EQ(z.sign(5), -1);
  EXPECT_EQ(z.sign(4), +1);
  z.set_sign(5, +1);
  EXPECT_EQ(z.sign(5), +1);
  EXPECT_THROW(z.set_sign(8, -1), InvalidArgument);
  EXPECT_THROW(z.set_sign(5, 2), InvalidArgument);
}

TEST(PerturbationVector, RandomIsBalancedOnAverage) {
  Rng rng(11);
  double total = 0.0;
  const int reps = 200;
  const unsigned ell = 8;
  for (int r = 0; r < reps; ++r) {
    const auto z = PerturbationVector::random(ell, rng);
    for (std::uint64_t x = 0; x < z.size(); ++x) {
      total += z.sign(x);
    }
  }
  const double mean_sign = total / (reps * 256.0);
  EXPECT_NEAR(mean_sign, 0.0, 0.02);
}

TEST(PerturbationVector, LargeEllWorks) {
  Rng rng(12);
  const auto z = PerturbationVector::random(10, rng);  // 1024 signs, 16 words
  int minus = 0;
  for (std::uint64_t x = 0; x < z.size(); ++x) {
    if (z.sign(x) == -1) ++minus;
  }
  EXPECT_GT(minus, 400);
  EXPECT_LT(minus, 624);
}

TEST(NuZ, PmfSumsToOne) {
  Rng rng(13);
  const CubeDomain dom(3);
  const auto z = PerturbationVector::random(3, rng);
  const NuZ nu(dom, z, 0.4);
  double total = 0.0;
  for (std::uint64_t e = 0; e < dom.universe_size(); ++e) total += nu.pmf(e);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(NuZ, PmfMatchesFormula) {
  const CubeDomain dom(2);
  PerturbationVector z(2);
  z.set_sign(1, -1);
  z.set_sign(3, -1);
  const double eps = 0.3;
  const NuZ nu(dom, z, eps);
  const double n = 8.0;
  for (std::uint64_t x = 0; x < 4; ++x) {
    for (int s : {+1, -1}) {
      const double expected = (1.0 + s * z.sign(x) * eps) / n;
      EXPECT_NEAR(nu.pmf(dom.encode(x, s)), expected, 1e-12);
    }
  }
}

TEST(NuZ, ExactlyEpsFarFromUniform) {
  Rng rng(14);
  const CubeDomain dom(4);
  for (double eps : {0.1, 0.5, 0.9}) {
    const NuZ nu(dom, PerturbationVector::random(4, rng), eps);
    const auto dist = nu.to_distribution();
    EXPECT_NEAR(dist.l1_from_uniform(), eps, 1e-9);
    EXPECT_DOUBLE_EQ(nu.l1_from_uniform(), eps);
  }
}

TEST(NuZ, MatchedPairMassConstant) {
  // nu_z(x,+1) + nu_z(x,-1) = 2/n for every x: the perturbation moves mass
  // only within matched pairs.
  Rng rng(15);
  const CubeDomain dom(3);
  const NuZ nu(dom, PerturbationVector::random(3, rng), 0.7);
  for (std::uint64_t x = 0; x < dom.side_size(); ++x) {
    const double pair_mass =
        nu.pmf(dom.encode(x, +1)) + nu.pmf(dom.encode(x, -1));
    EXPECT_NEAR(pair_mass, 2.0 / 16.0, 1e-12);
  }
}

TEST(NuZ, SamplingMatchesPmf) {
  Rng rng(16);
  const CubeDomain dom(2);
  PerturbationVector z(2);
  z.set_sign(1, -1);
  z.set_sign(2, -1);
  const NuZ nu(dom, z, 0.6);
  std::vector<double> freq(dom.universe_size(), 0.0);
  const int trials = 400000;
  for (int t = 0; t < trials; ++t) ++freq[nu.sample(rng)];
  for (std::uint64_t e = 0; e < dom.universe_size(); ++e) {
    EXPECT_NEAR(freq[e] / trials, nu.pmf(e), 0.005) << "e=" << e;
  }
}

TEST(NuZ, ZeroEpsIsUniform) {
  Rng rng(17);
  const CubeDomain dom(3);
  const NuZ nu(dom, PerturbationVector::random(3, rng), 0.0);
  const auto dist = nu.to_distribution();
  EXPECT_NEAR(dist.l1_from_uniform(), 0.0, 1e-12);
}

TEST(NuZ, MixtureOverZIsExactlyUniform) {
  // E_z[nu_z] = U_n — the paper's "average of the family is uniform" —
  // by enumerating all 2^(2^ell) perturbation vectors.
  for (unsigned ell : {1u, 2u, 3u}) {
    const CubeDomain dom(ell);
    const std::uint64_t num_z = 1ULL << dom.side_size();
    std::vector<double> acc(dom.universe_size(), 0.0);
    for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
      PerturbationVector z(ell);
      for (std::uint64_t x = 0; x < dom.side_size(); ++x) {
        z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
      }
      const NuZ nu(dom, z, 0.8);
      for (std::uint64_t e = 0; e < acc.size(); ++e) acc[e] += nu.pmf(e);
    }
    for (double& p : acc) p /= static_cast<double>(num_z);
    const DiscreteDistribution mixture(std::move(acc));
    EXPECT_NEAR(mixture.l1_from_uniform(), 0.0, 1e-9) << "ell=" << ell;
  }
}

TEST(NuZ, DimensionMismatchThrows) {
  Rng rng(18);
  EXPECT_THROW(NuZ(CubeDomain(3), PerturbationVector::random(2, rng), 0.5),
               InvalidArgument);
  EXPECT_THROW(NuZ(CubeDomain(2), PerturbationVector::random(2, rng), 1.5),
               InvalidArgument);
}

TEST(NuZ, SampleManyFills) {
  Rng rng(19);
  const CubeDomain dom(2);
  const NuZ nu(dom, PerturbationVector::random(2, rng), 0.5);
  std::vector<std::uint64_t> out;
  nu.sample_many(rng, 500, out);
  EXPECT_EQ(out.size(), 500u);
  for (auto e : out) EXPECT_LT(e, dom.universe_size());
}

}  // namespace
}  // namespace duti
