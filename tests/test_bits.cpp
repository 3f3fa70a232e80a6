#include "util/bits.hpp"

#include <gtest/gtest.h>

namespace duti {
namespace {

TEST(Bits, ChiMatchesProductOfCoordinates) {
  for (std::uint64_t s = 0; s < 16; ++s) {
    for (std::uint64_t x = 0; x < 16; ++x) {
      int expected = 1;
      for (unsigned i = 0; i < 4; ++i) {
        // bit = 1 encodes coordinate -1.
        if ((s >> i) & 1ULL) expected *= ((x >> i) & 1ULL) ? -1 : +1;
      }
      EXPECT_EQ(chi(s, x), expected) << "S=" << s << " x=" << x;
    }
  }
}

TEST(Bits, ChiEmptySetIsOne) {
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_EQ(chi(0, x), 1);
  }
}

TEST(Bits, ChiIsCharacter) {
  // chi_S(x XOR y) = chi_S(x) * chi_S(y) — the multiplicative property.
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t x = 0; x < 8; ++x) {
      for (std::uint64_t y = 0; y < 8; ++y) {
        EXPECT_EQ(chi(s, x ^ y), chi(s, x) * chi(s, y));
      }
    }
  }
}

TEST(Bits, Parity) {
  EXPECT_EQ(parity(0), 0);
  EXPECT_EQ(parity(1), 1);
  EXPECT_EQ(parity(0b101), 0);
  EXPECT_EQ(parity(0b111), 1);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2((1ULL << 50) + 123), 50u);
}

}  // namespace
}  // namespace duti
