#include "core/message_analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/claim31.hpp"
#include "core/divergence.hpp"
#include "fourier/families.hpp"
#include "testers/message_maps.hpp"
#include "util/error.hpp"
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
  EXPECT_NEAR(analysis.nu_z(nu), 1.0, 1e-12);
  EXPECT_NEAR(analysis.nu_z(nu) - analysis.mu(), 0.0, 1e-12);
  EXPECT_NEAR(lemma41_fourier_difference(analysis.codec(), g, nu), 0.0,
              1e-12);
}

TEST(MessageAnalysis, NuZOfGIsAProbability) {
  Rng rng(3);
  const auto g = fn::random_boolean(6, 0.4, rng);
  const auto analysis = make_analysis(2, 2, g);
  for (int trial = 0; trial < 5; ++trial) {
    const NuZ nu(CubeDomain(2), PerturbationVector::random(2, rng), 0.5);
    const double p = analysis.nu_z(nu);
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
    const double direct = analysis.nu_z(nu) - analysis.mu();
    const double fourier =
        lemma41_fourier_difference(analysis.codec(), g, nu);
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

// ---------------------------------------------------------------------------
// r-bit messages (Theorem 6.4): pushforwards and the per-player divergence
// E_z[D(M | nu_z^q || M | uniform)].
// ---------------------------------------------------------------------------

SampleTupleCodec small_codec(unsigned ell = 2, unsigned q = 2) {
  return SampleTupleCodec(CubeDomain(ell), q);
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << std::hexfloat << got;
}

TEST(MultibitAnalysis, Validation) {
  const auto codec = small_codec();
  EXPECT_THROW(MessageAnalysis(codec, 0, [](std::uint64_t) { return 0U; }),
               InvalidArgument);
  EXPECT_THROW(MessageAnalysis(codec, 2, nullptr), InvalidArgument);
}

TEST(MultibitAnalysis, UniformPushforwardIsADistribution) {
  const auto codec = small_codec();
  const MessageAnalysis analysis(
      codec, 3, [](std::uint64_t t) { return static_cast<std::uint32_t>(t % 8); });
  const auto& push = analysis.uniform_pushforward();
  EXPECT_EQ(push.size(), 8u);
  const double total = std::accumulate(push.begin(), push.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MultibitAnalysis, NuZPushforwardIsADistribution) {
  const auto codec = small_codec();
  Rng rng(1);
  const NuZ nu(codec.domain(), PerturbationVector::random(2, rng), 0.5);
  const NuZqPmf nu_q(codec, nu);
  std::vector<double> tuple_law(codec.num_tuples());
  for (std::uint64_t t = 0; t < tuple_law.size(); ++t) tuple_law[t] = nu_q(t);
  const MessageAnalysis analysis(
      codec, 2, [](std::uint64_t t) { return static_cast<std::uint32_t>(t % 4); });
  const auto push = analysis.pushforward(tuple_law);
  const double total = std::accumulate(push.begin(), push.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MultibitAnalysis, SymbolOutOfRangeThrows) {
  // Every tuple's symbol is checked once, at construction.
  const auto codec = small_codec();
  EXPECT_THROW(
      MessageAnalysis(codec, 1,
                      [](std::uint64_t t) { return static_cast<std::uint32_t>(t); }),
      InvalidArgument);
}

TEST(MultibitAnalysis, ConstantMessageHasZeroDivergence) {
  const auto codec = small_codec();
  const MessageAnalysis analysis(codec, 2, [](std::uint64_t) { return 3U; });
  EXPECT_NEAR(analysis.expected_divergence_exact(0.8), 0.0, 1e-12);
}

TEST(MultibitAnalysis, PrefixMessageCarriesAlmostNothing) {
  // The first sample's bits are marginally uniform under E_z[nu_z]; per
  // fixed z there is a little divergence, but far less than the collision
  // message extracts.
  const auto codec = small_codec(2, 2);
  const double eps = 0.4;
  // The first 2 bits of the first sample.
  const MessageAnalysis prefix(codec, 2, [codec](std::uint64_t t) {
    return static_cast<std::uint32_t>(codec.element(t, 0) & 3ULL);
  });
  const MessageAnalysis collision(codec, 2,
                                  collision_count_message(codec, 2));
  EXPECT_LT(prefix.expected_divergence_exact(eps),
            collision.expected_divergence_exact(eps));
}

TEST(MultibitAnalysis, DataProcessingInequality) {
  // No message map can exceed the full-tuple divergence
  // E_z[D(nu_z^q || mu^q)], which the identity message attains. Checked
  // for several maps at several eps.
  const auto codec = small_codec(2, 2);
  const auto identity = [](std::uint64_t t) {
    return static_cast<std::uint32_t>(t);
  };
  for (double eps : {0.2, 0.5, 0.9}) {
    const double ceiling =
        MessageAnalysis(codec, codec.total_bits(), identity)
            .expected_divergence_exact(eps);
    for (unsigned r : {1u, 2u, 4u}) {
      const MessageAnalysis analysis(codec, r,
                                     collision_count_message(codec, r));
      EXPECT_LE(analysis.expected_divergence_exact(eps), ceiling + 1e-12)
          << "r=" << r << " eps=" << eps;
    }
    // The identity's divergence is the full tuple's, summed directly.
    const double uniform = 1.0 / static_cast<double>(codec.num_tuples());
    double full = 0.0;
    const std::uint64_t num_z =
        for_each_z(codec.domain(), eps, [&](const NuZ& nu) {
          const NuZqPmf nu_q(codec, nu);
          for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
            const double p = nu_q(t);
            if (p > 0.0) full += p * std::log2(p / uniform);
          }
        });
    EXPECT_NEAR(ceiling, full / static_cast<double>(num_z), 1e-9);
  }
}

TEST(MultibitAnalysis, MoreBitsNeverLoseInformation) {
  // Refining the collision quantizer (larger r) weakly increases the
  // divergence: coarsening is a data-processing step.
  const auto codec = small_codec(2, 2);
  const double eps = 0.5;
  double prev = -1.0;
  for (unsigned r : {1u, 2u, 3u, 4u}) {
    const MessageAnalysis analysis(codec, r,
                                   collision_count_message(codec, r));
    const double d = analysis.expected_divergence_exact(eps);
    EXPECT_GE(d, prev - 1e-12) << "r=" << r;
    prev = d;
  }
}

TEST(MultibitAnalysis, DivergenceGrowsWithEps) {
  const auto codec = small_codec(2, 2);
  const MessageAnalysis analysis(codec, 2, collision_count_message(codec, 2));
  double prev = -1.0;
  for (double eps : {0.0, 0.2, 0.4, 0.8}) {
    const double d = analysis.expected_divergence_exact(eps);
    EXPECT_GE(d, prev - 1e-12) << "eps=" << eps;
    prev = d;
  }
  EXPECT_NEAR(analysis.expected_divergence_exact(0.0), 0.0, 1e-12);
}

TEST(MultibitAnalysis, E9bValuesArePinnedBitForBit) {
  // bench/e9_multibit's information table at ell = 3, q = 3, eps = 0.4:
  // its collision and random-hash messages and the full-tuple ceiling,
  // through the one shared pass over z the bench runs.
  const SampleTupleCodec codec(CubeDomain(3), 3);
  const double eps = 0.4;
  const auto hash_message = [](unsigned r) {
    const std::uint64_t key = derive_seed(0x9E37, r);
    return [key, r](std::uint64_t t) {
      return static_cast<std::uint32_t>(SplitMix64(t ^ key).next() &
                                        ((1ULL << r) - 1));
    };
  };
  struct Row {
    unsigned r;
    double collision, hash;
  };
  const Row rows[] = {Row{1, 0x1.aa62a517ee837p-9, 0x1.e12ce0e23ecacp-15},
                      Row{2, 0x1.cc0f744f77fc3p-9, 0x1.38436cd0959bcp-12},
                      Row{8, 0x1.cc0f744f77fc3p-9, 0x1.9def678ecdd04p-6}};
  std::vector<MessageAnalysis> analyses;
  analyses.emplace_back(codec, codec.total_bits(), [](std::uint64_t t) {
    return static_cast<std::uint32_t>(t);
  });
  for (const Row& row : rows) {
    analyses.emplace_back(codec, row.r, collision_count_message(codec, row.r));
    analyses.emplace_back(codec, row.r, hash_message(row.r));
  }
  const std::vector<double> kl = expected_divergences_exact(analyses, eps);
  expect_bits(kl[0], 0x1.6caca2b280441p-2, "ceiling");
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const std::string r = " r=" + std::to_string(rows[i].r);
    expect_bits(kl[1 + 2 * i], rows[i].collision, "collision" + r);
    expect_bits(kl[2 + 2 * i], rows[i].hash, "hash" + r);
    // One analysis alone gives the same bits as the shared pass.
    expect_bits(analyses[1 + 2 * i].expected_divergence_exact(eps),
                rows[i].collision, "collision alone" + r);
  }
}

TEST(MultibitAnalysis, VoteMessageMuIsTheAcceptFraction) {
  // The 1-bit vote map's pushforward under uniform is (1 - mu, mu), with
  // mu the directly counted fraction of accepting tuples.
  const auto codec = small_codec(2, 2);
  const auto vote = collision_vote_message(codec);
  const MessageAnalysis analysis(codec, 1, vote);
  const auto& push = analysis.uniform_pushforward();
  // Count accepting tuples directly.
  double accept = 0.0;
  for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
    accept += vote(t);
  }
  accept /= static_cast<double>(codec.num_tuples());
  EXPECT_EQ(analysis.mu(), accept);
  EXPECT_NEAR(push[1], accept, 1e-12);
  EXPECT_NEAR(push[0], 1.0 - accept, 1e-12);
}

// ---------------------------------------------------------------------------
// Hexfloat pins of the exact values E5, E6a, E11 and ablation_estimators
// print, recorded before the one-bit and r-bit analyses became one class.
// ---------------------------------------------------------------------------

TEST(MessageAnalysis, E5SecondMomentsArePinnedBitForBit) {
  // bench/e5_lemma42 at ell = 3, q = 2, eps = 0.1 (seed 1).
  const SampleTupleCodec codec(CubeDomain(3), 2);
  Rng rng(derive_seed(1, 3, 2, 100));
  const auto random_half = fn::random_boolean(8, 0.5, rng);
  const auto random_tenth = fn::random_boolean(8, 0.1, rng);
  const std::vector<std::pair<const char*, MessageAnalysis>> subjects{
      {"random p=0.5", MessageAnalysis(codec, random_half)},
      {"random p=0.1", MessageAnalysis(codec, random_tenth)},
      {"majority", MessageAnalysis(codec, fn::threshold_at_least(8, 4))},
      {"parity(all)", MessageAnalysis(codec, fn::parity(8, 0xFF))},
      {"collision voter",
       MessageAnalysis(codec, 1, collision_vote_message(codec))}};
  const double want[] = {0x1.f318fc50481d7p-18, 0x1.9c0ebedfa43f9p-18,
                         0x1.bb58e2196522fp-14, 0x1.205bc01a381c5p-20,
                         0x1.a36e2eb1b64f8p-22};
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    expect_bits(subjects[i].second.z_moments_exact(0.1).second_moment,
                want[i], subjects[i].first);
  }
}

TEST(MessageAnalysis, E6aMeanDifferencesArePinnedBitForBit) {
  // bench/e6_lemma43's table 1: AND-of-w at ell = 3, q = 2, eps = 0.05.
  const SampleTupleCodec codec(CubeDomain(3), 2);
  const double want[] = {0x1.27ap-50,  0x1.838p-53, -0x1.e38p-55,
                         0x1.6p-59,    -0x1.9p-59,  0.0,
                         0.0,          0x1.47ae147ae12c8p-17};
  for (unsigned w = 1; w <= 8; ++w) {
    const MessageAnalysis analysis(codec, fn::and_of(8, (1ULL << w) - 1));
    expect_bits(analysis.z_moments_exact(0.05).mean_diff, want[w - 1],
                "w=" + std::to_string(w));
  }
}

TEST(MessageAnalysis, E11DivergencesArePinnedBitForBit) {
  // bench/e11_divergence at ell = 3: E_z of the collision voter's
  // Bernoulli KL and chi-squared cap.
  struct Row {
    unsigned q;
    double eps, kl, chi;
  };
  for (const Row& row :
       {Row{2, 0.1, 0x1.41b9f527e67ebp-18, 0x1.42b9b4f86c198p-17},
        Row{2, 0.2, 0x1.3ec9c0cebf78ep-14, 0x1.42b9b4f877808p-13},
        Row{2, 0.4, 0x1.33d7105548eb2p-10, 0x1.42b9b4f875e48p-9},
        Row{3, 0.1, 0x1.b8f2b266d7fc8p-17, 0x1.b9fe5675a76b4p-16},
        Row{3, 0.2, 0x1.b5df00101edbap-13, 0x1.b9fe56759ef36p-12},
        Row{3, 0.4, 0x1.aa62a5180f1d9p-9, 0x1.b9fe5675b3235p-8}}) {
    const CubeDomain dom(3);
    const SampleTupleCodec codec(dom, row.q);
    const MessageAnalysis analysis(codec, 1, collision_vote_message(codec));
    const double mu_g = analysis.mu();
    double kl = 0.0, chi = 0.0;
    const std::uint64_t num_z = for_each_z(dom, row.eps, [&](const NuZ& nu) {
      const double alpha = analysis.nu_z(nu);
      kl += kl_bernoulli(alpha, mu_g);
      chi += chi2_bernoulli_bound(alpha, mu_g);
    });
    const std::string at = "q=" + std::to_string(row.q) +
                           " eps=" + std::to_string(row.eps);
    expect_bits(kl / static_cast<double>(num_z), row.kl, "kl " + at);
    expect_bits(chi / static_cast<double>(num_z), row.chi, "chi " + at);
  }
}

TEST(MessageAnalysis, McMomentIsPinnedBitForBit) {
  // bench/ablation_estimators' 1000-trial Monte-Carlo row (seed 1).
  const SampleTupleCodec codec(CubeDomain(3), 2);
  Rng fn_rng(1);
  const MessageAnalysis analysis(codec,
                                 fn::random_boolean(8, 0.3, fn_rng));
  Rng rng(derive_seed(1, 1000));
  expect_bits(analysis.z_moments_mc(0.2, 1000, rng).second_moment,
              0x1.f9b05aa63ebf8p-15, "second moment");
}

}  // namespace
}  // namespace duti
