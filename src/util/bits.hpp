// Bit-manipulation helpers for indexing the Boolean cube {-1,1}^m.
//
// Throughout the library a point of {-1,1}^m is encoded as the m low bits of
// an unsigned integer, with bit i = 1 meaning coordinate i = -1 and bit
// i = 0 meaning coordinate i = +1. (This convention makes the character
// chi_S(x) = (-1)^{popcount(x & S)}, matching the Walsh-Hadamard transform.)
#pragma once

#include <bit>
#include <cstdint>

namespace duti {

/// Character chi_S evaluated at cube point x: (-1)^{|{i in S : x_i = -1}|}.
[[nodiscard]] constexpr int chi(std::uint64_t s_mask,
                                std::uint64_t x) noexcept {
  return (std::popcount(s_mask & x) & 1) ? -1 : +1;
}

/// Parity of popcount: 0 or 1.
[[nodiscard]] constexpr int parity(std::uint64_t x) noexcept {
  return std::popcount(x) & 1;
}

/// True iff x is a power of two (exactly one bit set).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); undefined for x == 0 (asserted by callers).
[[nodiscard]] constexpr unsigned floor_log2(std::uint64_t x) noexcept {
  return 63U - static_cast<unsigned>(std::countl_zero(x));
}

}  // namespace duti
