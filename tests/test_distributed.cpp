#include "testers/distributed.hpp"

#include <gtest/gtest.h>

#include "dist/generators.hpp"
#include "testers/collision.hpp"
#include "util/confidence.hpp"

namespace duti {
namespace {

template <typename Tester>
std::pair<double, double> success_rates(const Tester& tester, double eps,
                                        int trials, std::uint64_t seed) {
  const auto n = tester.config().n;
  SuccessCounter uniform_ok, far_ok;
  const UniformSource uniform(n);
  for (int t = 0; t < trials; ++t) {
    Rng rng = make_rng(seed, 1, t);
    uniform_ok.record(tester.run(uniform, rng));
    Rng far_rng = make_rng(seed, 2, t);
    const DistributionSource far(gen::paninski(n, eps, far_rng));
    Rng run_rng = make_rng(seed, 3, t);
    far_ok.record(!tester.run(far, run_rng));
  }
  return {uniform_ok.rate(), far_ok.rate()};
}

TEST(CollisionVoters, VoteSemantics) {
  const auto factory = make_collision_voters(4, 0.5);
  auto player = factory(0);
  Rng rng(1);
  // No collisions: 0 pairs <= 0.5 -> accept.
  const std::vector<std::uint64_t> distinct{1, 2, 3, 4};
  EXPECT_TRUE(player->decide(distinct, rng).as_bit());
  // One collision: 1 > 0.5 -> reject.
  const std::vector<std::uint64_t> collide{1, 1, 3, 4};
  EXPECT_FALSE(player->decide(collide, rng).as_bit());
}

TEST(DistributedThresholdTester, ConfigValidation) {
  Rng rng(2);
  EXPECT_THROW(DistributedThresholdTester({0, 4, 8, 0.5}, rng),
               InvalidArgument);
  EXPECT_THROW(DistributedThresholdTester({64, 0, 8, 0.5}, rng),
               InvalidArgument);
  EXPECT_THROW(DistributedThresholdTester({64, 4, 1, 0.5}, rng),
               InvalidArgument);
  EXPECT_THROW(DistributedThresholdTester({64, 4, 0, 0.5}, rng),
               InvalidArgument);
  EXPECT_THROW(DistributedThresholdTester({64, 4, 8, 0.0}, rng),
               InvalidArgument);
  // The smallest legal shape: one player with one possible pair.
  const DistributedThresholdTester smallest({64, 1, 2, 0.5}, rng);
  const UniformSource uniform(64);
  Rng run_rng(3);
  (void)smallest.run(uniform, run_rng);
  EXPECT_EQ(smallest.referee_threshold(), 1u);
}

TEST(DistributedThresholdTester, CalibrationIsSane) {
  Rng rng(3);
  const DistributedThresholdTester tester({256, 32, 24, 0.5}, rng);
  EXPECT_GT(tester.p_reject_uniform(), 0.0);
  EXPECT_LT(tester.p_reject_uniform(), 1.0);
  EXPECT_GE(tester.referee_threshold(), 1u);
  EXPECT_LE(tester.referee_threshold(), 32u);
  // Local threshold is the uniform collision mean.
  EXPECT_NEAR(tester.local_threshold(),
              expected_collision_pairs_uniform(256.0, 24), 1e-12);
}

TEST(DistributedThresholdTester, SucceedsWithGenerousSamples) {
  Rng rng(4);
  const std::uint64_t n = 1024;
  const unsigned k = 32;
  const double eps = 0.5;
  // Generous: ~ 4 sqrt(n/k) / eps^2 = 4 * 5.7 / 0.25 ~ 91.
  const unsigned q = 96;
  const DistributedThresholdTester tester({n, k, q, eps}, rng);
  const auto [u, f] = success_rates(tester, eps, 150, 41);
  EXPECT_GE(u, 0.7);
  EXPECT_GE(f, 0.7);
}

TEST(DistributedThresholdTester, FailsWithFarTooFewSamples) {
  Rng rng(5);
  const std::uint64_t n = 1 << 14;
  const DistributedThresholdTester tester({n, 8, 2, 0.3}, rng);
  const auto [u, f] = success_rates(tester, 0.3, 150, 42);
  EXPECT_GE(u, 0.6);  // uniform side is easy
  EXPECT_LE(f, 0.4);  // cannot reject far with 2 samples on 16k domain
}

TEST(DistributedThresholdTester, MoreNodesNeedFewerSamplesPerNode) {
  // The core "distribution helps" effect: fixed q that fails for small k
  // succeeds for large k.
  const std::uint64_t n = 4096;
  const double eps = 0.5;
  const unsigned q = 64;  // ~ sqrt(n/k)/eps^2 for k ~ 16
  Rng rng1(6), rng2(7);
  const DistributedThresholdTester small_k({n, 4, q, eps}, rng1);
  const DistributedThresholdTester large_k({n, 256, q, eps}, rng2);
  const auto [us, fs] = success_rates(small_k, eps, 200, 43);
  const auto [ul, fl] = success_rates(large_k, eps, 200, 44);
  EXPECT_GE(ul, 0.7);
  EXPECT_GE(fl, 0.7);
  // The 2-node version with the same q must do clearly worse on the far
  // side.
  EXPECT_LT(fs, fl - 0.15);
  (void)us;
}

TEST(DistributedAndTester, LocalThresholdGrowsWithK) {
  const DistributedAndTester t8({1024, 8, 32, 0.5});
  const DistributedAndTester t1024({1024, 1024, 32, 0.5});
  EXPECT_GT(t1024.local_threshold(), t8.local_threshold());
}

TEST(DistributedAndTester, UniformSideSafeEvenWithManyNodes) {
  // The per-node 1/(3k) false-alarm budget must keep the AND of 256 honest
  // nodes accepting.
  const std::uint64_t n = 512;
  const DistributedAndTester tester({n, 256, 32, 0.5});
  SuccessCounter uniform_ok;
  const UniformSource uniform(n);
  for (int t = 0; t < 100; ++t) {
    Rng rng = make_rng(45, t);
    uniform_ok.record(tester.run(uniform, rng));
  }
  EXPECT_GE(uniform_ok.rate(), 2.0 / 3.0);
}

TEST(DistributedAndTester, SucceedsWithCentralizedScaleSamples) {
  // AND rule with q ~ centralized cost: every node can nearly decide alone.
  const std::uint64_t n = 256;
  const double eps = 0.5;
  const unsigned q = 160;  // ~ 10 sqrt(n) / eps^2
  const DistributedAndTester tester({n, 8, q, eps});
  const auto [u, f] = success_rates(tester, eps, 150, 46);
  EXPECT_GE(u, 0.7);
  EXPECT_GE(f, 0.7);
}

TEST(DistributedAndTester, DoesNotGainFromMoreNodesAtFixedSmallQ) {
  // Contrast with the threshold tester: at q well below sqrt(n)/eps^2,
  // adding nodes does not rescue the AND rule (its per-node threshold
  // rises with k, suppressing rejections).
  const std::uint64_t n = 4096;
  const double eps = 0.5;
  const unsigned q = 48;
  const DistributedAndTester tester({n, 64, q, eps});
  const auto [u, f] = success_rates(tester, eps, 200, 47);
  EXPECT_GE(u, 0.8);
  EXPECT_LE(f, 0.5);  // threshold tester passed 0.7 here (test above)
}

TEST(DistributedTesters, ExposedProtocolMatchesRun) {
  Rng rng(8);
  const DistributedTesterConfig cfg{512, 16, 32, 0.5};
  const DistributedThresholdTester tester(cfg, rng);
  const auto protocol = tester.make_protocol();
  const auto rule = tester.make_rule();
  const UniformSource uniform(512);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng r1 = make_rng(48, seed), r2 = make_rng(48, seed);
    EXPECT_EQ(tester.run(uniform, r1),
              protocol.run(uniform, r2, rule).accept);
  }
}

}  // namespace
}  // namespace duti
