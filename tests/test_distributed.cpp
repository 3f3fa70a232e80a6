#include "testers/distributed.hpp"

#include <gtest/gtest.h>

#include "dist/generators.hpp"
#include "success_rates.hpp"
#include "testers/collision.hpp"
#include "util/confidence.hpp"

namespace duti {
namespace {

using test::success_rates;

/// A source that replays fixed draws in order, so a player's pair count is
/// chosen by the test.
class ScriptedSource final : public SampleSource {
 public:
  ScriptedSource(std::uint64_t n, std::vector<std::uint64_t> draws)
      : n_(n), draws_(std::move(draws)) {}
  [[nodiscard]] std::uint64_t sample(Rng& /*rng*/) const override {
    return draws_[next_++ % draws_.size()];
  }
  [[nodiscard]] std::uint64_t domain_size() const override { return n_; }
  [[nodiscard]] double l1_from_uniform() const override { return 0.0; }

 private:
  std::uint64_t n_;
  std::vector<std::uint64_t> draws_;
  mutable std::size_t next_ = 0;
};

TEST(CollisionVoters, VoteSemantics) {
  // n = 6, q = 4: the local threshold C(4,2)/6 is exactly 1. The reject
  // test is strict, so a pair count equal to it accepts and one more pair
  // rejects.
  Rng calib(1);
  const DistributedThresholdTester tester({6, 1, 4, 0.5}, calib, 50);
  ASSERT_EQ(tester.vote().threshold(), 1.0);
  const auto vote = [&tester](std::vector<std::uint64_t> draws) {
    Rng rng(2);
    return tester.executor()
        .collect(ScriptedSource(6, std::move(draws)), rng)
        .at(0)
        .as_bit();
  };
  EXPECT_TRUE(vote({0, 1, 2, 3}));   // 0 pairs
  EXPECT_TRUE(vote({0, 0, 2, 3}));   // 1 pair, equal to the threshold
  EXPECT_FALSE(vote({0, 0, 2, 2}));  // 2 pairs
  EXPECT_FALSE(vote({5, 5, 5, 1}));  // 3 pairs, at the top cell
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
  EXPECT_NEAR(tester.vote().threshold(),
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
  const auto [u, f] = success_rates(tester, n, eps, 150, 41);
  EXPECT_GE(u, 0.7);
  EXPECT_GE(f, 0.7);
}

TEST(DistributedThresholdTester, FailsWithFarTooFewSamples) {
  Rng rng(5);
  const std::uint64_t n = 1 << 14;
  const DistributedThresholdTester tester({n, 8, 2, 0.3}, rng);
  const auto [u, f] = success_rates(tester, n, 0.3, 150, 42);
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
  const auto [us, fs] = success_rates(small_k, n, eps, 200, 43);
  const auto [ul, fl] = success_rates(large_k, n, eps, 200, 44);
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
  EXPECT_GT(t1024.vote().threshold(), t8.vote().threshold());
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
  const auto [u, f] = success_rates(tester, n, eps, 150, 46);
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
  const auto [u, f] = success_rates(tester, n, eps, 200, 47);
  EXPECT_GE(u, 0.8);
  EXPECT_LE(f, 0.5);  // threshold tester passed 0.7 here (test above)
}

}  // namespace
}  // namespace duti
