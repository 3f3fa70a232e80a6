// Reduction from identity testing to uniformity testing [Goldreich'16]:
// uniformity is complete for testing equality to ANY fixed distribution eta
// (the property the paper's abstract highlights). Samples from the unknown
// mu are mapped through a bucket expansion built from eta; if mu = eta the
// mapped samples are (near-)uniform on the expanded domain, and l1 distance
// is preserved up to the rounding granularity.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/discrete_distribution.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

class IdentityReduction {
 public:
  /// Expand to a domain of `expanded_size` cells; bucket i gets
  /// round(eta_i * expanded_size) cells (largest-remainder apportionment,
  /// so the cell counts sum exactly to expanded_size and every bucket with
  /// eta_i > 0 gets at least one cell).
  IdentityReduction(DiscreteDistribution eta, std::uint64_t expanded_size);

  /// Map one sample of the original domain to a uniformly random cell of
  /// its bucket.
  [[nodiscard]] std::uint64_t map(std::uint64_t element, Rng& rng) const;

  [[nodiscard]] std::uint64_t expanded_size() const noexcept {
    return expanded_size_;
  }

  /// The exact pmf of the mapped distribution when the input is `mu`
  /// (for tests): cell j in bucket i has mass mu_i / size_i.
  [[nodiscard]] DiscreteDistribution mapped_distribution(
      const DiscreteDistribution& mu) const;

  /// Worst-case extra l1 distance introduced by rounding, i.e. the l1
  /// distance between mapped(eta) and exact uniform.
  [[nodiscard]] double rounding_error() const;

 private:
  DiscreteDistribution eta_;
  std::uint64_t expanded_size_;
  std::vector<std::uint64_t> sizes_;   // cells per bucket
  std::vector<std::uint64_t> starts_;  // first cell of each bucket
};

/// SampleSource adapter: samples the inner source and maps each draw
/// through the reduction, so any uniformity tester can test identity.
class ReducedSource final : public SampleSource {
 public:
  ReducedSource(const SampleSource& inner, const IdentityReduction& reduction)
      : inner_(&inner), reduction_(&reduction) {}

  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return reduction_->map(inner_->sample(rng), rng);
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return reduction_->expanded_size();
  }
  /// Not exact (depends on the inner distribution); reported as unknown.
  [[nodiscard]] double l1_from_uniform() const override { return -1.0; }

 private:
  const SampleSource* inner_;         // not owned
  const IdentityReduction* reduction_;  // not owned
};

}  // namespace duti
