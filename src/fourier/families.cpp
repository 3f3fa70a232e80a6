#include "fourier/families.hpp"

#include <bit>

#include "util/error.hpp"

namespace duti::fn {

BooleanCubeFunction constant(unsigned m, double c) {
  return BooleanCubeFunction::tabulate(m, [c](std::uint64_t) { return c; });
}

BooleanCubeFunction parity(unsigned m, std::uint64_t s_mask) {
  require(s_mask < (1ULL << m), "parity: mask out of range");
  return BooleanCubeFunction::tabulate(m, [s_mask](std::uint64_t x) {
    return static_cast<double>(duti::parity(x & s_mask));
  });
}

BooleanCubeFunction and_of(unsigned m, std::uint64_t s_mask) {
  require(s_mask < (1ULL << m), "and_of: mask out of range");
  return BooleanCubeFunction::tabulate(m, [s_mask](std::uint64_t x) {
    return (x & s_mask) == s_mask ? 1.0 : 0.0;
  });
}

BooleanCubeFunction majority(unsigned m) {
  require(m % 2 == 1, "majority: m must be odd");
  return BooleanCubeFunction::tabulate(m, [m](std::uint64_t x) {
    return static_cast<unsigned>(std::popcount(x)) > m / 2 ? 1.0 : 0.0;
  });
}

BooleanCubeFunction threshold_at_least(unsigned m, unsigned t) {
  return BooleanCubeFunction::tabulate(m, [t](std::uint64_t x) {
    return static_cast<unsigned>(std::popcount(x)) >= t ? 1.0 : 0.0;
  });
}

BooleanCubeFunction tribes(unsigned m, unsigned tribe_size) {
  require(tribe_size >= 1 && m % tribe_size == 0,
          "tribes: m must be a multiple of tribe_size");
  const std::uint64_t tribe_mask = (1ULL << tribe_size) - 1;
  return BooleanCubeFunction::tabulate(
      m, [m, tribe_size, tribe_mask](std::uint64_t x) {
        for (unsigned base = 0; base < m; base += tribe_size) {
          if (((x >> base) & tribe_mask) == tribe_mask) return 1.0;
        }
        return 0.0;
      });
}

BooleanCubeFunction random_boolean(unsigned m, double p, Rng& rng) {
  require(p >= 0.0 && p <= 1.0, "random_boolean: p in [0,1]");
  return BooleanCubeFunction::tabulate(m, [&](std::uint64_t) {
    return rng.next_bernoulli(p) ? 1.0 : 0.0;
  });
}

BooleanCubeFunction random_real(unsigned m, double lo, double hi, Rng& rng) {
  require(lo <= hi, "random_real: lo must be <= hi");
  return BooleanCubeFunction::tabulate(m, [&](std::uint64_t) {
    return lo + (hi - lo) * rng.next_double();
  });
}

}  // namespace duti::fn
