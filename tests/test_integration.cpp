// Cross-module integration tests: miniature versions of the bench
// experiments, wiring testers + harness + core machinery together.
#include <gtest/gtest.h>

#include <cmath>

#include "core/divergence.hpp"
#include "core/message_analysis.hpp"
#include "core/bounds.hpp"
#include "core/predictions.hpp"
#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "testers/centralized.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "testers/message_maps.hpp"

namespace duti {
namespace {

/// Measured minimal per-player q for the threshold tester at (n, k, eps).
std::uint64_t measure_q_star(std::uint64_t n, unsigned k, double eps,
                             std::uint64_t seed, std::size_t trials = 120) {
  const ProbeFn probe = [=](std::uint64_t q) {
    Rng calib_rng = make_rng(seed, q, 0xCA11B);
    const DistributedThresholdTester tester(
        {n, k, static_cast<unsigned>(q), eps}, calib_rng);
    const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
      return tester.run(src, rng);
    };
    return probe_success(run, workloads::uniform_factory(n),
                         workloads::paninski_far_factory(n, eps), trials,
                         derive_seed(seed, q));
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  cfg.trials = trials;
  cfg.seed = seed;
  const auto result = find_min_param(probe, cfg);
  EXPECT_TRUE(result.found);
  return result.minimum;
}

TEST(IntegrationE1Mini, ThresholdTesterQStarDropsWithK) {
  // The headline phenomenon: more nodes => fewer samples per node, with
  // roughly sqrt scaling (Theorems 1.1 / tester of [7]).
  const std::uint64_t n = 2048;
  const double eps = 0.5;
  const auto q4 = measure_q_star(n, 4, eps, 51);
  const auto q64 = measure_q_star(n, 64, eps, 52);
  EXPECT_LT(q64, q4);
  // sqrt(16) = 4x predicted gain; allow a wide band for trial noise.
  const double gain = static_cast<double>(q4) / static_cast<double>(q64);
  EXPECT_GE(gain, 2.0);
  EXPECT_LE(gain, 9.0);
}

TEST(IntegrationE1Mini, MeasuredQStarRespectsTheorem61LowerBound) {
  // The paper's lower bound (with its explicit inequality-(13) constants)
  // must lie below any measured tester cost.
  const std::uint64_t n = 2048;
  const double eps = 0.5;
  for (unsigned k : {4u, 16u}) {
    const auto measured = measure_q_star(n, k, eps, derive_seed(53, k));
    const double lower =
        theorem61_q_lower_bound(static_cast<double>(n), k, eps);
    EXPECT_GE(static_cast<double>(measured), lower)
        << "k=" << k << " measured=" << measured << " lower=" << lower;
  }
}

TEST(IntegrationE2Mini, AndRuleCostsMoreThanThresholdRule) {
  // Theorem 1.2's phenomenon, measured: the AND tester's minimal q at
  // moderate k exceeds the threshold tester's.
  const std::uint64_t n = 1024;
  const double eps = 0.5;
  const unsigned k = 32;

  const ProbeFn and_probe = [=](std::uint64_t q) {
    const DistributedAndTester tester({n, k, static_cast<unsigned>(q), eps});
    const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
      return tester.run(src, rng);
    };
    return probe_success(run, workloads::uniform_factory(n),
                         workloads::paninski_far_factory(n, eps), 120,
                         derive_seed(54, q));
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  const auto and_result = find_min_param(and_probe, cfg);
  ASSERT_TRUE(and_result.found);

  const auto threshold_q = measure_q_star(n, k, eps, 55);
  EXPECT_GT(and_result.minimum, threshold_q);
}

TEST(IntegrationLemma42, HoldsForTheActualCollisionVoterMessageFunction) {
  // Build the REAL player message function G used by the testers (vote on
  // the local collision count) as a dense Boolean function on the small
  // cube universe, and check Lemma 4.2 (with the corrected factor 2, see
  // test_message_analysis) against exact enumeration over z.
  const unsigned ell = 2, q = 2;
  const double eps = 0.2;
  const CubeDomain dom(ell);
  const double n = static_cast<double>(dom.universe_size());
  const SampleTupleCodec codec(dom, q);
  // Symbol 1 = accept.
  const MessageAnalysis analysis(codec, 1, collision_vote_message(codec));
  const auto moments = analysis.z_moments_exact(eps);
  ASSERT_TRUE(bounds::lemma42_valid(n, q, eps));
  const double bound =
      2.0 * bounds::lemma42_bound(n, q, eps, analysis.variance());
  EXPECT_LE(moments.second_moment, bound + 1e-12);
}

TEST(IntegrationDivergencePipeline, Fact63CapsExactPerPlayerDivergence) {
  // For the collision-voter G, every fixed z's Bernoulli divergence
  // D(nu_z(G) || mu(G)) is capped by the chi-squared bound — the exact step
  // (11) of Theorem 6.1's proof.
  const unsigned ell = 2, q = 2;
  const double eps = 0.5;
  const CubeDomain dom(ell);
  const SampleTupleCodec codec(dom, q);
  const MessageAnalysis analysis(codec, 1, collision_vote_message(codec));
  const double mu_g = analysis.mu();
  ASSERT_GT(mu_g, 0.0);
  ASSERT_LT(mu_g, 1.0);
  Rng rng(56);
  for (int t = 0; t < 50; ++t) {
    const NuZ nu(dom, PerturbationVector::random(ell, rng), eps);
    const double alpha = analysis.nu_z(nu);
    EXPECT_LE(kl_bernoulli(alpha, mu_g),
              chi2_bernoulli_bound(alpha, mu_g) + 1e-12);
  }
}

TEST(IntegrationCentralizedVsDistributed, TotalSamplesComparable) {
  // Sanity: at its measured optimum, the distributed threshold tester's
  // TOTAL sample count (k * q) is within a constant factor of the
  // centralized cost — distribution parallelizes, it does not create
  // information.
  const std::uint64_t n = 2048;
  const double eps = 0.5;
  const unsigned k = 16;
  const auto q_star = measure_q_star(n, k, eps, 57);
  const double total = static_cast<double>(k) * static_cast<double>(q_star);
  const double centralized = predict::centralized_q(static_cast<double>(n), eps);
  EXPECT_GE(total, 0.3 * centralized);
  EXPECT_LE(total, 60.0 * centralized);
}

}  // namespace
}  // namespace duti
