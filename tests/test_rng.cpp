#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/sample_source.hpp"
#include "util/error.hpp"

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

// --- The integer coin --------------------------------------------------------
//
// Rng::coin_threshold(p) must give `next_double() < p`'s verdict on every
// raw. These rows set up a generator whose next raw is chosen, so the
// verdict on the right is the real next_double's.

/// A generator whose next output is `raw`: xoshiro256++ returns
/// rotl(s0 + s3, 23) + s0, which is raw for s0 = 0 and s3 = rotr(raw, 23).
Rng with_next_raw(std::uint64_t raw) {
  Rng rng;
  rng.set_state({0, 0, 0, (raw >> 23) | (raw << 41)});
  return rng;
}

/// For raws whose top 53 bits are t - 1, t and t + 1 (those below 2^53),
/// each with low 11 bits 0 and 2047, the integer coin against next_double.
void expect_coin_matches_next_double(double p, std::uint64_t t) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const std::uint64_t m : {t - 1, t, t + 1}) {
    if (m >= kTop) continue;  // t - 1 wraps at t = 0; t + 1 can be 2^53
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{2047}}) {
      const std::uint64_t raw = (m << 11) | low;
      Rng rng = with_next_raw(raw);
      const bool keep = (raw >> 11) < t;
      ASSERT_EQ(keep, rng.next_double() < p)
          << "p=" << p << " raw=" << raw;
    }
  }
}

TEST(CoinThreshold, BoundaryRowsGiveTheDoubleCoinsVerdict) {
  ASSERT_EQ(with_next_raw(0x0123456789abcdefULL)(), 0x0123456789abcdefULL);
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  // p, then ⌈p·2^53⌉ at p's lower neighbour, at p, at its upper neighbour
  // (computed in exact rational arithmetic).
  struct Row {
    double p;
    std::uint64_t below, at, above;
  };
  const Row rows[] = {
      {0.0, 0, 0, 1},
      {kTiny, 0, 1, 1},
      {0x1p-53, 1, 1, 2},
      {0.25, 2251799813685248, 2251799813685248, 2251799813685249},
      {1.0 / 3.0, 3002399751580330, 3002399751580331, 3002399751580331},
      {0.5, 4503599627370496, 4503599627370496, 4503599627370497},
      {0.75, 6755399441055743, 6755399441055744, 6755399441055745},
      {1.0 - 0x1p-53, 9007199254740990, 9007199254740991, 9007199254740992},
      {1.0, 9007199254740991, 9007199254740992, 0},
  };
  for (const Row& r : rows) {
    const double below = std::nextafter(r.p, -1.0);
    const double above = std::nextafter(r.p, 2.0);
    for (const auto& [p, t] : {std::pair(below, r.below), std::pair(r.p, r.at),
                               std::pair(above, r.above)}) {
      SCOPED_TRACE(testing::Message() << std::hexfloat << "p=" << p);
      if (p < 0.0 || p > 1.0) {
        EXPECT_THROW((void)Rng::coin_threshold(p), InvalidArgument);
        continue;
      }
      ASSERT_EQ(Rng::coin_threshold(p), t);
      expect_coin_matches_next_double(p, t);
    }
  }
  EXPECT_THROW((void)Rng::coin_threshold(std::nan("")), InvalidArgument);
  EXPECT_THROW((void)Rng::coin_threshold(-1.0), InvalidArgument);
  EXPECT_THROW((void)Rng::coin_threshold(2.0), InvalidArgument);
  EXPECT_THROW(
      (void)Rng::coin_threshold(std::numeric_limits<double>::infinity()),
      InvalidArgument);
  // -0.0 is 0: no raw passes.
  EXPECT_EQ(Rng::coin_threshold(-0.0), 0U);
}

TEST(CoinThreshold, MatchesTheDoubleCoinAtRandomProbabilities) {
  // Random p over every binade in [0, 1] (uniform exponent and mantissa
  // bits), and uniform p, each checked on the raws around its threshold.
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    double p = 0.0;
    if (i % 2 == 0) {
      p = rng.next_double();
    } else {
      const std::uint64_t exponent = rng.next_below(1024);  // up to 2^0
      const std::uint64_t mantissa = rng() >> 12;
      p = std::bit_cast<double>((exponent << 52) | mantissa);
      if (p > 1.0) p = 1.0;
    }
    const std::uint64_t t = Rng::coin_threshold(p);
    ASSERT_LE(t, std::uint64_t{1} << 53);
    expect_coin_matches_next_double(p, t);
  }
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256pp>);
  SUCCEED();
}

}  // namespace
}  // namespace duti
