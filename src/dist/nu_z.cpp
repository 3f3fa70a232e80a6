#include "dist/nu_z.hpp"

#include <cmath>

#include "util/error.hpp"

namespace duti {

PerturbationVector::PerturbationVector(unsigned ell) : ell_(ell) {
  require(ell >= 1 && ell <= 30, "PerturbationVector: ell must be in [1,30]");
  bits_.assign(((1ULL << ell_) + 63) / 64, 0);
}

PerturbationVector PerturbationVector::random(unsigned ell, Rng& rng) {
  PerturbationVector z(ell);
  for (auto& word : z.bits_) word = rng();
  // Mask unused high bits of the last word so comparisons stay well-defined.
  const std::uint64_t used = (1ULL << ell) % 64;
  if (used != 0) z.bits_.back() &= (1ULL << used) - 1;
  return z;
}

void PerturbationVector::set_sign(std::uint64_t x, int s) {
  require(x < size(), "PerturbationVector::set_sign: x out of range");
  require(s == 1 || s == -1, "PerturbationVector::set_sign: s must be +-1");
  const std::uint64_t mask = 1ULL << (x & 63U);
  if (s == -1) {
    bits_[x >> 6] |= mask;
  } else {
    bits_[x >> 6] &= ~mask;
  }
}

NuZ::NuZ(CubeDomain domain, PerturbationVector z, double eps)
    : domain_(domain), z_(std::move(z)), eps_(eps) {
  require(domain_.ell() == z_.ell(), "NuZ: domain/z dimension mismatch");
  require(eps_ >= 0.0 && eps_ <= 1.0, "NuZ: eps must be in [0,1]");
  // P(s=+1 | x) = (1 + z(x) eps) / 2, as the draw computed it per sample.
  plus_threshold_ = {Rng::coin_threshold(0.5 * (1.0 + eps_)),
                     Rng::coin_threshold(0.5 * (1.0 - eps_))};
}

double NuZ::pmf(std::uint64_t element) const noexcept {
  const auto n = static_cast<double>(domain_.universe_size());
  const int s = domain_.s_of(element);
  const int zx = z_.sign(domain_.x_of(element));
  return (1.0 + static_cast<double>(s * zx) * eps_) / n;
}

void NuZ::sample_many(Rng& rng, std::size_t count,
                      std::vector<std::uint64_t>& out) const {
  out.resize(count);
  with_register_copy(rng, [this, &out](Rng& local) {
    for (std::uint64_t& o : out) o = sample(local);
  });
}

DiscreteDistribution NuZ::to_distribution(std::size_t max_cells) const {
  const std::uint64_t n = domain_.universe_size();
  if (n > max_cells) {
    throw CapacityError("NuZ::to_distribution: universe too large");
  }
  std::vector<double> pmf_vec(n);
  for (std::uint64_t e = 0; e < n; ++e) pmf_vec[e] = pmf(e);
  return DiscreteDistribution(std::move(pmf_vec));
}

}  // namespace duti
