#include "core/message_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/bounds.hpp"
#include "fourier/families.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

MessageAnalysis make_analysis(unsigned ell, unsigned q,
                              const BooleanCubeFunction& g) {
  return MessageAnalysis(SampleTupleCodec(CubeDomain(ell), q), g);
}

TEST(MessageAnalysis, RejectsNonBooleanOrWrongArity) {
  const CubeDomain dom(2);
  const SampleTupleCodec codec(dom, 2);
  Rng rng(1);
  EXPECT_THROW(MessageAnalysis(codec, fn::random_real(6, 0.1, 0.9, rng)),
               InvalidArgument);
  EXPECT_THROW(MessageAnalysis(codec, fn::random_boolean(5, 0.5, rng)),
               InvalidArgument);
}

TEST(MessageAnalysis, ConstantFunctionSeesNoDifference) {
  Rng rng(2);
  const auto g = fn::constant(6, 1.0);
  const auto analysis = make_analysis(2, 2, g);
  const NuZ nu(CubeDomain(2), PerturbationVector::random(2, rng), 0.7);
  EXPECT_NEAR(analysis.nu_z_exact(nu), 1.0, 1e-12);
  EXPECT_NEAR(analysis.nu_z_exact(nu) - analysis.mu(), 0.0, 1e-12);
  EXPECT_NEAR(analysis.lemma41_fourier_difference(nu), 0.0, 1e-12);
}

TEST(MessageAnalysis, NuZExactIsAProbability) {
  Rng rng(3);
  const auto g = fn::random_boolean(6, 0.4, rng);
  const auto analysis = make_analysis(2, 2, g);
  for (int trial = 0; trial < 5; ++trial) {
    const NuZ nu(CubeDomain(2), PerturbationVector::random(2, rng), 0.5);
    const double p = analysis.nu_z_exact(nu);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Lemma 4.1: the Fourier-side expression equals nu_z(G) - mu(G) EXACTLY.
// This is the identity the whole lower-bound machinery rests on.
// ---------------------------------------------------------------------------

class Lemma41Test : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, double, double>> {};

TEST_P(Lemma41Test, FourierDifferenceEqualsDirectDifference) {
  const auto [ell, q, eps, p] = GetParam();
  Rng rng(derive_seed(41, ell, q, static_cast<std::uint64_t>(eps * 100),
                      static_cast<std::uint64_t>(p * 100)));
  const auto g = fn::random_boolean((ell + 1) * q, p, rng);
  const auto analysis = make_analysis(ell, q, g);
  for (int z_trial = 0; z_trial < 3; ++z_trial) {
    const NuZ nu(CubeDomain(ell), PerturbationVector::random(ell, rng), eps);
    const double direct = analysis.nu_z_exact(nu) - analysis.mu();
    const double fourier = analysis.lemma41_fourier_difference(nu);
    ASSERT_NEAR(direct, fourier, 1e-11) << "z_trial=" << z_trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomFunctions, Lemma41Test,
    ::testing::Combine(::testing::Values(1u, 2u),       // ell
                       ::testing::Values(1u, 2u, 3u),   // q
                       ::testing::Values(0.2, 0.8),     // eps
                       ::testing::Values(0.1, 0.5)));   // density of G

TEST(MessageAnalysis, SingleSampleMeanDifferenceIsZero) {
  // For q = 1, E_z[nu_z] is exactly uniform, so E_z[nu_z(G)] = mu(G) for
  // every G: mean_diff must vanish while the second moment need not.
  Rng rng(4);
  const auto g = fn::random_boolean(3, 0.5, rng);  // ell=2, q=1: 3 bits
  const auto analysis = make_analysis(2, 1, g);
  const auto moments = analysis.z_moments_exact(0.9);
  EXPECT_NEAR(moments.mean_diff, 0.0, 1e-12);
}

TEST(MessageAnalysis, ZeroEpsMakesAllMomentsVanish) {
  Rng rng(5);
  const auto g = fn::random_boolean(6, 0.5, rng);
  const auto analysis = make_analysis(2, 2, g);
  const auto moments = analysis.z_moments_exact(0.0);
  EXPECT_NEAR(moments.mean_abs_diff, 0.0, 1e-12);
  EXPECT_NEAR(moments.second_moment, 0.0, 1e-12);
}

TEST(MessageAnalysis, McMomentsConvergeToExact) {
  Rng rng(6);
  const auto g = fn::random_boolean(6, 0.3, rng);
  const auto analysis = make_analysis(2, 2, g);
  const auto exact = analysis.z_moments_exact(0.6);
  const auto mc = analysis.z_moments_mc(0.6, 4000, rng);
  EXPECT_NEAR(mc.mean_diff, exact.mean_diff, 0.01);
  EXPECT_NEAR(mc.second_moment, exact.second_moment,
              0.1 * std::max(1e-6, exact.second_moment) + 1e-6);
}

// ---------------------------------------------------------------------------
// The main lemmas, verified against exact enumeration: for every tested G
// within each lemma's validity range, the bound dominates the exact moment.
// ---------------------------------------------------------------------------

struct LemmaCase {
  unsigned ell;
  unsigned q;
  double eps;
};

class MainLemmasTest : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(MainLemmasTest, Lemma51BoundHolds) {
  const auto c = GetParam();
  const double n = std::ldexp(1.0, static_cast<int>(c.ell) + 1);
  if (!bounds::lemma51_valid(n, c.q, c.eps)) GTEST_SKIP();
  Rng rng(derive_seed(51, c.ell, c.q));
  for (double p : {0.05, 0.3, 0.5}) {
    const auto g = fn::random_boolean((c.ell + 1) * c.q, p, rng);
    const auto analysis = make_analysis(c.ell, c.q, g);
    const auto moments = analysis.z_moments_exact(c.eps);
    const double bound =
        bounds::lemma51_bound(n, c.q, c.eps, analysis.variance());
    EXPECT_LE(std::fabs(moments.mean_diff), bound + 1e-12) << "p=" << p;
  }
}

TEST_P(MainLemmasTest, Lemma42BoundHoldsWithFactorTwoSlack) {
  // REPRODUCTION FINDING: the stated constants of Lemma 4.2 are violated by
  // exact enumeration at q = 1 — the extremal G(x,s) = 1[s = +1] achieves
  // E_z[(nu_z(G)-mu(G))^2] = eps^2/(2n) while the stated bound's linear
  // term is (q eps^2/n) var(G) = eps^2/(4n). The linear term must be at
  // least 2 q eps^2 / n; we verify the bound with that corrected factor
  // (see the ExtremalFunction test below, and EXPERIMENTS.md).
  const auto c = GetParam();
  const double n = std::ldexp(1.0, static_cast<int>(c.ell) + 1);
  if (!bounds::lemma42_valid(n, c.q, c.eps)) GTEST_SKIP();
  Rng rng(derive_seed(42, c.ell, c.q));
  for (double p : {0.05, 0.3, 0.5}) {
    const auto g = fn::random_boolean((c.ell + 1) * c.q, p, rng);
    const auto analysis = make_analysis(c.ell, c.q, g);
    const auto moments = analysis.z_moments_exact(c.eps);
    const double bound =
        2.0 * bounds::lemma42_bound(n, c.q, c.eps, analysis.variance());
    EXPECT_LE(moments.second_moment, bound + 1e-12) << "p=" << p;
  }
}

TEST(MainLemmas, Lemma42ExtremalFunctionShowsFactorTwoIsNecessary) {
  // G depends only on the side bit of its single sample: G(x,s) = 1[s=+1].
  // Exact computation: nu_z(G) - mu(G) = (eps/n) sum_x z(x), so
  // E_z[diff^2] = eps^2 (n/2) / n^2 = eps^2/(2n), while var(G) = 1/4 and
  // the stated Lemma 4.2 rhs is (20 eps^4/n + eps^2/n)/4 < eps^2/(2n) for
  // small eps. The corrected factor-2 bound is exactly tight here.
  const unsigned ell = 3;
  const double n = std::ldexp(1.0, static_cast<int>(ell) + 1);
  const double eps = 0.1;
  const SampleTupleCodec codec(CubeDomain(ell), 1);
  const auto g = BooleanCubeFunction::tabulate(
      ell + 1, [&](std::uint64_t t) {
        return CubeDomain(ell).s_of(t) == +1 ? 1.0 : 0.0;
      });
  const MessageAnalysis analysis(codec, g);
  const auto moments = analysis.z_moments_exact(eps);
  EXPECT_NEAR(moments.second_moment, eps * eps / (2.0 * n), 1e-12);
  const double stated = bounds::lemma42_bound(n, 1.0, eps, analysis.variance());
  EXPECT_GT(moments.second_moment, stated);  // stated constants fail
  EXPECT_LE(moments.second_moment, 2.0 * stated + 1e-15);  // factor 2 fixes
}

TEST_P(MainLemmasTest, Lemma43BoundHoldsForBiasedFunctions) {
  const auto c = GetParam();
  const double n = std::ldexp(1.0, static_cast<int>(c.ell) + 1);
  Rng rng(derive_seed(43, c.ell, c.q));
  for (unsigned m : {1u, 2u}) {
    if (!bounds::lemma43_valid(n, c.q, c.eps, m)) continue;
    for (double p : {0.02, 0.1}) {
      const auto g = fn::random_boolean((c.ell + 1) * c.q, p, rng);
      const auto analysis = make_analysis(c.ell, c.q, g);
      const auto moments = analysis.z_moments_exact(c.eps);
      const double bound =
          bounds::lemma43_bound(n, c.q, c.eps, m, analysis.variance());
      EXPECT_LE(std::fabs(moments.mean_diff), bound + 1e-12)
          << "m=" << m << " p=" << p;
    }
  }
}

TEST_P(MainLemmasTest, Lemma44BoundHoldsWithModestConstant) {
  const auto c = GetParam();
  const double n = std::ldexp(1.0, static_cast<int>(c.ell) + 1);
  Rng rng(derive_seed(44, c.ell, c.q));
  for (unsigned m : {1u}) {
    if (!bounds::lemma44_valid(n, c.q, c.eps, m)) continue;
    for (double p : {0.1, 0.4}) {
      const auto g = fn::random_boolean((c.ell + 1) * c.q, p, rng);
      const auto analysis = make_analysis(c.ell, c.q, g);
      const auto moments = analysis.z_moments_exact(c.eps);
      const double bound =
          bounds::lemma44_bound(n, c.q, c.eps, m, analysis.variance(),
                                /*big_c=*/1.0);
      EXPECT_LE(moments.second_moment, bound + 1e-12)
          << "m=" << m << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallExactCases, MainLemmasTest,
    ::testing::Values(LemmaCase{2, 1, 0.1}, LemmaCase{2, 2, 0.1},
                      LemmaCase{3, 1, 0.1}, LemmaCase{3, 2, 0.1},
                      LemmaCase{2, 1, 0.2}, LemmaCase{3, 2, 0.05},
                      LemmaCase{2, 2, 0.05}, LemmaCase{3, 1, 0.3}));

}  // namespace
}  // namespace duti
