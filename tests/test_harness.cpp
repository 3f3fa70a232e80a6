#include "stats/harness.hpp"

#include <gtest/gtest.h>

#include "stats/workloads.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

TEST(ProbeSuccess, PerfectTester) {
  // Tester that answers by the true distance of the source.
  const TesterRun oracle = [](const SampleSource& source, Rng&) {
    return source.l1_from_uniform() == 0.0;
  };
  const auto result = probe_success(oracle, workloads::uniform_factory(64),
                                    workloads::paninski_far_factory(64, 0.5),
                                    100, 1);
  EXPECT_DOUBLE_EQ(result.uniform_accept_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.far_reject_rate, 1.0);
  EXPECT_TRUE(result.passes());
  EXPECT_EQ(result.trials, 100u);
}

TEST(ProbeSuccess, CoinFlipTester) {
  const TesterRun coin = [](const SampleSource&, Rng& rng) {
    return rng.next_bernoulli(0.5);
  };
  const auto result = probe_success(coin, workloads::uniform_factory(64),
                                    workloads::paninski_far_factory(64, 0.5),
                                    2000, 2);
  EXPECT_NEAR(result.uniform_accept_rate, 0.5, 0.05);
  EXPECT_NEAR(result.far_reject_rate, 0.5, 0.05);
  EXPECT_FALSE(result.passes());
}

TEST(ProbeSuccess, AlwaysAcceptFailsOneSide) {
  const TesterRun yes = [](const SampleSource&, Rng&) { return true; };
  const auto result = probe_success(yes, workloads::uniform_factory(64),
                                    workloads::paninski_far_factory(64, 0.5),
                                    50, 3);
  EXPECT_DOUBLE_EQ(result.uniform_accept_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.far_reject_rate, 0.0);
  EXPECT_FALSE(result.passes());
}

TEST(ProbeSuccess, DeterministicUnderSeed) {
  const TesterRun noisy = [](const SampleSource& source, Rng& rng) {
    std::vector<std::uint64_t> s;
    source.sample_many(rng, 4, s);
    return (s[0] + s[1]) % 2 == 0;
  };
  const auto a = probe_success(noisy, workloads::uniform_factory(16),
                               workloads::paninski_far_factory(16, 0.5), 200,
                               7);
  const auto b = probe_success(noisy, workloads::uniform_factory(16),
                               workloads::paninski_far_factory(16, 0.5), 200,
                               7);
  EXPECT_DOUBLE_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_DOUBLE_EQ(a.far_reject_rate, b.far_reject_rate);
}

TEST(FindMinParam, SyntheticStepFunction) {
  // Probe passes iff value >= 37.
  const ProbeFn probe = [](std::uint64_t value) {
    ProbeResult r;
    r.trials = 1;
    r.uniform_accept_rate = value >= 37 ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 4096;
  const auto result = find_min_param(probe, cfg);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.minimum, 37u);
  EXPECT_FALSE(result.probes.empty());
}

TEST(FindMinParam, PassesImmediatelyAtLo) {
  const ProbeFn probe = [](std::uint64_t) {
    ProbeResult r;
    r.uniform_accept_rate = 1.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 5;
  const auto result = find_min_param(probe, cfg);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.minimum, 5u);
}

TEST(FindMinParam, GivesUpAtHi) {
  const ProbeFn probe = [](std::uint64_t) {
    ProbeResult r;  // never passes
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 64;
  const auto result = find_min_param(probe, cfg);
  EXPECT_FALSE(result.found);
}

TEST(FindMinParam, BoundaryExactlyAtLoTimesPowerOfTwo) {
  const ProbeFn probe = [](std::uint64_t value) {
    ProbeResult r;
    r.uniform_accept_rate = value >= 64 ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1024;
  const auto result = find_min_param(probe, cfg);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.minimum, 64u);
}

TEST(FindMinParam, ValidationErrors) {
  MinSearchConfig cfg;
  cfg.lo = 10;
  cfg.hi = 5;
  const ProbeFn probe = [](std::uint64_t) { return ProbeResult{}; };
  EXPECT_THROW((void)find_min_param(probe, cfg), InvalidArgument);
  EXPECT_THROW((void)find_min_param(nullptr, MinSearchConfig{}),
               InvalidArgument);
}

}  // namespace
}  // namespace duti
