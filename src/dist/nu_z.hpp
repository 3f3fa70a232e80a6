// The hard distribution family of Section 3 [Paninski'08 construction,
// lifted onto the Boolean cube]: for a perturbation vector
// z : {-1,1}^ell -> {-1,1},
//
//     nu_z(x, s) = (1 + s * z(x) * eps) / n,     n = 2^{ell+1}.
//
// Every nu_z is exactly eps-far from uniform in l1, and the mixture over a
// uniformly random z averages to the uniform distribution exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dist/cube_domain.hpp"
#include "dist/discrete_distribution.hpp"
#include "util/rng.hpp"

namespace duti {

/// A perturbation vector z: one sign per vertex of {-1,1}^ell.
class PerturbationVector {
 public:
  /// All +1 signs.
  explicit PerturbationVector(unsigned ell);

  /// Uniformly random signs.
  static PerturbationVector random(unsigned ell, Rng& rng);

  [[nodiscard]] unsigned ell() const noexcept { return ell_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return 1ULL << ell_; }

  /// z(x) in {-1, +1} for a cube point x in [0, 2^ell).
  [[nodiscard]] int sign(std::uint64_t x) const {
    return ((bits_[x >> 6] >> (x & 63U)) & 1ULL) ? -1 : +1;
  }

  void set_sign(std::uint64_t x, int s);

 private:
  unsigned ell_;
  std::vector<std::uint64_t> bits_;  // bit=1 encodes sign -1
};

/// The distribution nu_z, sampled directly (without materializing the pmf):
/// draw x uniformly, then s = +1 with probability (1 + z(x) eps)/2.
class NuZ {
 public:
  NuZ(CubeDomain domain, PerturbationVector z, double eps);

  [[nodiscard]] const CubeDomain& domain() const noexcept { return domain_; }
  [[nodiscard]] const PerturbationVector& z() const noexcept { return z_; }
  [[nodiscard]] double eps() const noexcept { return eps_; }

  /// pmf of element (x,s) under nu_z.
  [[nodiscard]] double pmf(std::uint64_t element) const noexcept;

  /// Draw one element: two raws, x = next_below(2^ell) as one shift (ell
  /// is in [1, 30], so the side is a power of two above 1; ShiftIndex in
  /// util/rng.hpp), then the coin. Inline, so batched loops draw on a
  /// register copy of the stream.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const noexcept {
    const std::uint64_t x = ShiftIndex{64U - domain_.ell()}(rng);
    // s = -1 sets bit ell: the coin `next_double() < (1 + z(x) eps)/2`
    // fails. The coin is the integer compare against the threshold of
    // z(x)'s sign (Rng::coin_threshold), indexed, not branched on: a random
    // z takes either sign half the time.
    const std::uint64_t plus_below = plus_threshold_[z_.sign(x) < 0 ? 1 : 0];
    const bool minus = (rng() >> 11) >= plus_below;
    return x | (static_cast<std::uint64_t>(minus) << domain_.ell());
  }

  /// Draw `count` iid elements into `out`.
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const;

  /// Materialize as a DiscreteDistribution (throws CapacityError when the
  /// universe exceeds max_cells).
  [[nodiscard]] DiscreteDistribution to_distribution(
      std::size_t max_cells = (1ULL << 26)) const;

  /// Exact l1 distance from uniform; equals eps by construction.
  [[nodiscard]] double l1_from_uniform() const noexcept { return eps_; }

 private:
  CubeDomain domain_;
  PerturbationVector z_;
  double eps_;
  /// coin_threshold((1 + eps)/2) for z(x) = +1, and of (1 - eps)/2 for -1.
  std::array<std::uint64_t, 2> plus_threshold_{};
};

}  // namespace duti
