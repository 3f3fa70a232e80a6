// A discrete probability distribution over {0, ..., n-1}, with the distance
// and divergence measures used throughout the paper (l1, total variation,
// l2, KL, chi-squared), plus O(1) sampling via the alias method.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dist/alias_sampler.hpp"
#include "util/rng.hpp"

namespace duti {

class DiscreteDistribution {
 public:
  /// Build from a pmf; validates non-negativity and that the entries sum to
  /// 1 within `tol`, then renormalizes exactly. Throws InvalidArgument.
  explicit DiscreteDistribution(std::vector<double> pmf, double tol = 1e-9);

  /// The uniform distribution on a domain of size n.
  [[nodiscard]] static DiscreteDistribution uniform(std::size_t n);

  [[nodiscard]] std::size_t domain_size() const noexcept {
    return pmf_.size();
  }
  [[nodiscard]] double pmf(std::size_t i) const { return pmf_.at(i); }
  [[nodiscard]] const std::vector<double>& pmf_vector() const noexcept {
    return pmf_;
  }

  /// Draw one sample. The sampler is built lazily on first use.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  /// The alias table every draw goes through, built on first use.
  [[nodiscard]] const AliasSampler& sampler() const;

  /// Draw `count` iid samples into `out` (resized).
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const;

  /// l1 distance sum_i |p_i - q_i| (the paper's distance; in [0, 2]).
  [[nodiscard]] double l1_distance(const DiscreteDistribution& other) const;

  /// Total variation distance = l1 / 2 (in [0, 1]).
  [[nodiscard]] double tv_distance(const DiscreteDistribution& other) const;

  /// l2 distance sqrt(sum_i (p_i - q_i)^2).
  [[nodiscard]] double l2_distance(const DiscreteDistribution& other) const;

  /// KL divergence D(this || other) in bits (log base 2), +inf if this puts
  /// mass where other has none.
  [[nodiscard]] double kl_divergence(const DiscreteDistribution& other) const;

  /// chi-squared divergence sum_i (p_i - q_i)^2 / q_i; +inf if unsupported.
  [[nodiscard]] double chi2_divergence(const DiscreteDistribution& other) const;

  /// Shannon entropy in bits.
  [[nodiscard]] double entropy() const;

  /// Distance from the uniform distribution on the same domain, in l1.
  [[nodiscard]] double l1_from_uniform() const;

  /// The q-fold product distribution over tuples, as a flat pmf indexed by
  /// i_1 + i_2*n + ... + i_q*n^{q-1}. Exact-enumeration helper for small
  /// cases (throws CapacityError if n^q would exceed max_cells).
  [[nodiscard]] DiscreteDistribution power(unsigned q,
                                           std::size_t max_cells =
                                               (1ULL << 24)) const;

  /// Pointwise mixture (1-w)*this + w*other; domains must match.
  [[nodiscard]] DiscreteDistribution mix(const DiscreteDistribution& other,
                                         double w) const;

 private:
  std::vector<double> pmf_;
  mutable std::shared_ptr<const AliasSampler> sampler_;  // built lazily
};

}  // namespace duti
