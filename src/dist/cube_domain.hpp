// The paper's sample universe (Section 3): two copies of the Boolean cube
// {-1,1}^ell, so n = 2^{ell+1}. An element is a pair (x, s) with
// x in {-1,1}^ell and s in {-1,+1}; (x,+1) on the "left" cube is matched to
// (x,-1) on the "right".
//
// Encoding: an element is an integer in [0, n). The low `ell` bits encode x
// (bit convention of util/bits.hpp: bit=1 means coordinate -1), and bit
// `ell` encodes s (0 means s=+1, 1 means s=-1).
#pragma once

#include <cstdint>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace duti {

class CubeDomain {
 public:
  /// Domain with universe size n = 2^{ell+1}. ell in [1, 30].
  explicit CubeDomain(unsigned ell) : ell_(ell) {
    require(ell >= 1 && ell <= 30, "CubeDomain: ell must be in [1, 30]");
  }

  [[nodiscard]] unsigned ell() const noexcept { return ell_; }

  /// Number of cube vertices per side, 2^ell.
  [[nodiscard]] std::uint64_t side_size() const noexcept {
    return 1ULL << ell_;
  }

  /// Universe size n = 2^{ell+1}.
  [[nodiscard]] std::uint64_t universe_size() const noexcept {
    return 1ULL << (ell_ + 1);
  }

  /// Extract the cube point x (as an integer in [0, 2^ell)).
  [[nodiscard]] std::uint64_t x_of(std::uint64_t element) const noexcept {
    return element & (side_size() - 1);
  }

  /// Extract the side s: +1 (left cube) or -1 (right cube).
  [[nodiscard]] int s_of(std::uint64_t element) const noexcept {
    return ((element >> ell_) & 1ULL) ? -1 : +1;
  }

  /// Compose an element from (x, s).
  [[nodiscard]] std::uint64_t encode(std::uint64_t x, int s) const {
    require(x < side_size(), "CubeDomain::encode: x out of range");
    require(s == 1 || s == -1, "CubeDomain::encode: s must be +-1");
    return x | (static_cast<std::uint64_t>(s == -1) << ell_);
  }

 private:
  unsigned ell_;
};

}  // namespace duti
