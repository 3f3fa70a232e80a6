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

TEST(FindMinParam, LadderSaturatesAtHiNearTheTopOfTheRange) {
  // A probe that never passes walks the whole doubling ladder. Past 2^63 a
  // plain doubling wraps to 0; the ladder must instead saturate at cfg.hi,
  // give up there, and never consult a value outside [lo, hi]. The probe
  // throws after 70 calls (the longest valid walk is 65), so a ladder that
  // loops fails fast instead of growing the audit until allocation fails.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  for (const std::uint64_t hi :
       {kTop - 1, kTop, kTop + 1, ~std::uint64_t{0}}) {
    for (const bool bracketed : {false, true}) {
      SCOPED_TRACE(testing::Message() << "hi=" << hi
                                      << " bracketed=" << bracketed);
      std::size_t calls = 0;
      const ProbeFn never = [&calls](std::uint64_t) {
        if (++calls > 70) throw InvalidArgument("ladder did not terminate");
        return ProbeResult{};
      };
      MinSearchConfig cfg;
      cfg.lo = 2;
      cfg.hi = hi;
      if (bracketed) cfg.bracket_probe = never;
      const auto result = find_min_param(never, cfg);
      EXPECT_FALSE(result.found);
      ASSERT_FALSE(result.probes.empty());
      for (const auto& [value, probe] : result.probes) {
        EXPECT_GE(value, cfg.lo);
        EXPECT_LE(value, cfg.hi);
      }
      EXPECT_EQ(result.probes.back().first, cfg.hi);
    }
  }
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
