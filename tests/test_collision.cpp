#include "testers/collision.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dist/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

using Samples = std::vector<std::uint64_t>;

TEST(CollisionPairs, ByHand) {
  EXPECT_EQ(collision_pairs(Samples{1, 2, 3}, 10), 0u);
  EXPECT_EQ(collision_pairs(Samples{1, 1, 2}, 10), 1u);
  EXPECT_EQ(collision_pairs(Samples{5, 5, 5}, 10), 3u);
  EXPECT_EQ(collision_pairs(Samples{5, 5, 5, 5}, 10), 6u);
  EXPECT_EQ(collision_pairs(Samples{1, 2, 1, 2}, 10), 2u);
  EXPECT_EQ(collision_pairs(Samples{}, 10), 0u);
  EXPECT_EQ(collision_pairs(Samples{9}, 10), 0u);
}

TEST(CollisionPairs, MatchesQuadraticBruteForce) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> samples(40);
    for (auto& s : samples) s = rng.next_below(10);
    std::uint64_t brute = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t j = i + 1; j < samples.size(); ++j) {
        if (samples[i] == samples[j]) ++brute;
      }
    }
    ASSERT_EQ(collision_pairs(samples, 10), brute);
  }
}

TEST(DistinctValues, ByHand) {
  EXPECT_EQ(distinct_values(Samples{1, 1, 2, 3, 3}, 8), 3u);
  EXPECT_EQ(distinct_values(Samples{}, 8), 0u);
  EXPECT_EQ(distinct_values(Samples{7, 7, 7}, 8), 1u);
}

TEST(CollisionStatistics, SamplesMustLieInTheDomain) {
  // Domain 4 and the 2^22 cap tally into the per-thread plane; one past
  // the cap sorts. On each path the top cell, domain - 1, is counted, and
  // the first value past it throws InvalidArgument naming the sample and
  // the domain. The throw comes after two increments of the top cell, so
  // the follow-up counts also check that the plane was left clean.
  struct Stat {
    const char* name;
    std::uint64_t (*count)(std::span<const std::uint64_t>, std::uint64_t);
    std::uint64_t expected;  // its value on {top, top, 0}
  };
  const std::vector<Stat> stats = {{"collision_pairs", &collision_pairs, 1},
                                   {"distinct_values", &distinct_values, 2}};
  for (const std::uint64_t domain :
       {std::uint64_t{4}, kMaxTallyPlaneDomain, kMaxTallyPlaneDomain + 1}) {
    const std::uint64_t top = domain - 1;
    for (const auto& [name, count, expected] : stats) {
      SCOPED_TRACE(std::string(name) + " domain=" + std::to_string(domain));
      EXPECT_EQ(count(Samples{top, top, 0}, domain), expected);
      try {
        (void)count(Samples{top, top, domain}, domain);
        ADD_FAILURE() << "sample = domain was counted";
      } catch (const InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("sample " + std::to_string(domain)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("[0, " + std::to_string(domain) + ")"),
                  std::string::npos)
            << what;
      }
      EXPECT_EQ(count(Samples{top, top, 0}, domain), expected);
    }
  }
  // A fresh thread's plane holds exactly `domain` cells, so an unchecked
  // index past it would write out of bounds.
  std::thread([] {
    EXPECT_THROW((void)collision_pairs(Samples{5, 5, 9}, 4), InvalidArgument);
    EXPECT_THROW((void)distinct_values(Samples{5, 5, 9}, 4), InvalidArgument);
  }).join();
}

TEST(L2NormSquared, KnownValues) {
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution::uniform(100)), 0.01,
              1e-12);
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution({1.0, 0.0})), 1.0, 1e-12);
  EXPECT_NEAR(l2_norm_squared(DiscreteDistribution({0.5, 0.5})), 0.5, 1e-12);
}

TEST(ExpectedCollisions, UniformFormula) {
  EXPECT_NEAR(expected_collision_pairs_uniform(100.0, 10), 45.0 / 100.0,
              1e-12);
}

TEST(ExpectedCollisions, EmpiricalAgreement) {
  // E[C] = C(q,2) ||mu||_2^2.
  Rng rng(2);
  const auto dist = gen::zipf(50, 1.0);
  const unsigned q = 30;
  const double expected = 0.5 * static_cast<double>(q * (q - 1)) *
                          l2_norm_squared(dist);
  double acc = 0.0;
  const int trials = 20000;
  std::vector<std::uint64_t> samples;
  for (int t = 0; t < trials; ++t) {
    dist.sample_many(rng, q, samples);
    acc += static_cast<double>(collision_pairs(samples, 50));
  }
  EXPECT_NEAR(acc / trials, expected, 0.05 * expected);
}

TEST(FarL2LowerBound, CauchySchwarzHoldsOnConcreteFamilies) {
  // Every eps-far distribution must have ||mu||_2^2 >= (1+eps^2)/n.
  Rng rng(3);
  const std::size_t n = 64;
  for (double eps : {0.2, 0.5, 1.0}) {
    const double bound = (1.0 + eps * eps) / static_cast<double>(n);
    for (int trial = 0; trial < 20; ++trial) {
      const auto far = gen::paninski(n, eps, rng);
      EXPECT_GE(l2_norm_squared(far), bound - 1e-12);
    }
    const auto bim = gen::bimodal(n, eps);
    EXPECT_GE(l2_norm_squared(bim), bound - 1e-12);
  }
}

TEST(FarL2LowerBound, PaninskiIsExtremal) {
  // The Paninski family achieves the bound with equality: it is the
  // hardest eps-far family (this is why the paper uses it).
  Rng rng(4);
  const std::size_t n = 128;
  const double eps = 0.4;
  const auto far = gen::paninski(n, eps, rng);
  EXPECT_NEAR(l2_norm_squared(far), (1.0 + eps * eps) / static_cast<double>(n),
              1e-12);
}

TEST(CollisionVote, DecidedAboveBoundaryRows) {
  // For each threshold t, decided_above() is d = floor(t), and the vote's
  // strict double compare agrees with p > d at p = d - 1, d and d + 1.
  // From 2^53 up counts no longer convert to double exactly, so the vote
  // decides nothing early there.
  constexpr double kTwo53 = 9007199254740992.0;
  struct Row {
    double t;
    std::uint64_t decided_above;
  };
  const std::vector<Row> rows = {
      {1.0, 1},
      {11.5, 11},
      {std::nextafter(12.0, 0.0), 11},
      {kTwo53 - 1.0, (1ULL << 53) - 1},
      {kTwo53, kNoPairBound},
  };
  for (const auto& [t, decided_above] : rows) {
    SCOPED_TRACE(testing::Message() << "t=" << t);
    const CollisionVote vote(t);
    const std::uint64_t d = vote.decided_above();
    EXPECT_EQ(d, decided_above);
    if (d == kNoPairBound) continue;
    for (const std::uint64_t p : {d - 1, d, d + 1}) {
      EXPECT_EQ(vote.rejects(p), p > d) << "pairs=" << p;
    }
  }
  EXPECT_EQ(CollisionVote(2.0 * kTwo53).decided_above(), kNoPairBound);
  EXPECT_EQ(CollisionVote(std::numeric_limits<double>::infinity())
                .decided_above(),
            kNoPairBound);
}

TEST(CollisionVote, AtUniformMeanIsTheExpectedPairCount) {
  // n = 6, q = 4: C(4,2)/6 = 1, so a count of 1 accepts and 2 rejects.
  const CollisionVote vote = CollisionVote::at_uniform_mean(6, 4);
  EXPECT_EQ(vote.threshold(), expected_collision_pairs_uniform(6.0, 4));
  EXPECT_FALSE(vote.rejects(1));
  EXPECT_TRUE(vote.rejects(2));
}

TEST(Collision, ArgumentValidation) {
  EXPECT_THROW((void)expected_collision_pairs_uniform(0.5, 5), InvalidArgument);
  EXPECT_THROW((void)expected_collision_pairs_uniform(10.0, 1), InvalidArgument);
}

}  // namespace
}  // namespace duti
