#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/sample_source.hpp"

namespace duti {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SplitMix64, KnownVector) {
  // Reference values for seed 1234567 from the public-domain reference
  // implementation.
  SplitMix64 sm(1234567);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(1234567);
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(first, 0u);
}

TEST(DeriveSeed, LabelsChangeSeed) {
  const auto base = derive_seed(7);
  EXPECT_NE(base, derive_seed(7, 0));
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0, 0), derive_seed(7, 0, 1));
  EXPECT_NE(derive_seed(7, 0, 1), derive_seed(7, 1, 0));
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(99, 3, 4), derive_seed(99, 3, 4));
}

TEST(Xoshiro, DeterministicStreams) {
  Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextDoubleMeanNearHalf) {
  Rng rng(13);
  double acc = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) acc += rng.next_double();
  EXPECT_NEAR(acc / trials, 0.5, 0.01);
}

TEST(Xoshiro, NextBelowStaysInRange) {
  Rng rng(17);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowCoversAllValues) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro, NextBelowApproximatelyUniform) {
  Rng rng(23);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / trials, 0.1, 0.01);
  }
}

TEST(Xoshiro, SignIsFair) {
  Rng rng(29);
  int plus = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const int s = rng.next_sign();
    ASSERT_TRUE(s == 1 || s == -1);
    if (s == 1) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / trials, 0.5, 0.01);
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Rng rng(31);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i) {
      if (rng.next_bernoulli(p)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, p, 0.02);
  }
}

TEST(MakeRng, DistinctStreamsAreIndependentish) {
  Rng a = make_rng(123, 0);
  Rng b = make_rng(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// Advances `rng` by `draws` outputs, one step at a time.
void step(Rng& rng, std::uint64_t draws) {
  for (std::uint64_t i = 0; i < draws; ++i) (void)rng();
}

TEST(XoshiroJump, PolynomialsReproduceTheReferenceJumpConstants) {
  // JUMP (2^128 draws) and LONG_JUMP (2^192 draws) of the xoshiro256
  // reference implementation.
  EXPECT_EQ(Rng::jump_polynomial(1, 128),
            (Rng::JumpPolynomial{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                 0xa9582618e03fc9aaULL,
                                 0x39abdc4529b1661cULL}));
  EXPECT_EQ(Rng::jump_polynomial(1, 192),
            (Rng::JumpPolynomial{0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                 0x77710069854ee241ULL,
                                 0x39109bb02acbe635ULL}));
}

TEST(XoshiroJump, JumpEqualsStepping) {
  for (const std::uint64_t draws :
       {0ULL, 1ULL, 255ULL, 256ULL, 257ULL, (1ULL << 20) + 3}) {
    Rng stepped(41), jumped(41);
    step(stepped, draws);
    jumped.jump(Rng::jump_polynomial(draws));
    EXPECT_EQ(jumped.state(), stepped.state()) << "draws=" << draws;
    EXPECT_EQ(jumped(), stepped()) << "draws=" << draws;
  }
  // Doublings scale the distance: 3 * 2^5 draws.
  Rng stepped(42), jumped(42);
  step(stepped, 96);
  jumped.jump(Rng::jump_polynomial(3, 5));
  EXPECT_EQ(jumped.state(), stepped.state());
}

TEST(XoshiroJump, JumpsCompose) {
  const std::pair<std::uint64_t, std::uint64_t> splits[] = {
      {0, 5}, {1, 1}, {255, 257}, {1000, 1ULL << 40}, {~0ULL >> 1, 12345}};
  for (const auto& [a, b] : splits) {
    Rng twice(43), once(43);
    twice.jump(Rng::jump_polynomial(a));
    twice.jump(Rng::jump_polynomial(b));
    once.jump(Rng::jump_polynomial(a + b));
    EXPECT_EQ(twice.state(), once.state()) << "a=" << a << " b=" << b;
  }
}

TEST(IndexDraw, ShiftEqualsNextBelowOnEveryPowerOfTwo) {
  // Same value from the same one raw, and the same exit state, for every
  // k in [1, 63] on 4096 raws from several seeds.
  for (unsigned k = 1; k <= 63; ++k) {
    const std::uint64_t n = std::uint64_t{1} << k;
    const ShiftIndex shift{64 - k};
    for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL, 0xDEADBEEFULL}) {
      Rng shifted(derive_seed(seed, k));
      Rng lemire(derive_seed(seed, k));
      for (int i = 0; i < 4096; ++i) {
        ASSERT_EQ(shift(shifted), lemire.next_below(n))
            << "k=" << k << " seed=" << seed << " i=" << i;
      }
      ASSERT_EQ(shifted.state(), lemire.state())
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(IndexDraw, ChoosesTheShiftExactlyForPowersOfTwoAboveOne) {
  const std::uint64_t top = std::uint64_t{1} << 63;
  const std::pair<std::uint64_t, unsigned> cases[] = {
      {0, 0},       {1, 0},       {2, 63},       {3, 0},
      {4, 62},      {1023, 0},    {1024, 54},    {1025, 0},
      {top - 1, 0}, {top, 1},     {top + 1, 0},  {~std::uint64_t{0}, 0}};
  for (const auto& [n, want_shift] : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    Rng drawn(derive_seed(5, n));
    Rng lemire(derive_seed(5, n));
    with_index_draw(n, [&](auto index) {
      if constexpr (std::is_same_v<decltype(index), ShiftIndex>) {
        EXPECT_EQ(index.shift, want_shift);
      } else {
        EXPECT_EQ(want_shift, 0U);
        EXPECT_EQ(index.bound, n);
      }
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(index(drawn), lemire.next_below(n)) << i;
      }
    });
    EXPECT_EQ(drawn.state(), lemire.state());
  }
}

TEST(IndexDraw, UniformOverOneTakesOneRawPerDrawAndReturnsZero) {
  const UniformSource one(1);
  const auto expect_raws = [](const Rng& drawn, std::uint64_t seed,
                              std::size_t raws) {
    Rng stepped(seed);
    for (std::size_t i = 0; i < raws; ++i) (void)stepped();
    EXPECT_EQ(drawn.state(), stepped.state()) << raws << " raws";
  };
  Rng scalar(31);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(one.sample(scalar), 0U);
  expect_raws(scalar, 31, 5);

  Rng batched(32);
  std::vector<std::uint64_t> out;
  one.sample_many(batched, 257, out);
  EXPECT_EQ(out, std::vector<std::uint64_t>(257, 0));
  expect_raws(batched, 32, 257);

  // Every pair of draws collides: C(q, 2) pairs with no bound, and a bound
  // of 5 is passed at the fourth draw (C(4, 2) = 6).
  Rng counted(33);
  EXPECT_EQ(one.count_pairs(counted, 40, kNoPairBound), 40U * 39U / 2U);
  expect_raws(counted, 33, 40);
  Rng stopped(34);
  EXPECT_EQ(one.count_pairs(stopped, 40, 5), 6U);
  expect_raws(stopped, 34, 4);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256pp>);
  SUCCEED();
}

}  // namespace
}  // namespace duti
