#include "dist/discrete_distribution.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace duti {

DiscreteDistribution::DiscreteDistribution(std::vector<double> pmf,
                                           double tol)
    : pmf_(std::move(pmf)) {
  require(!pmf_.empty(), "DiscreteDistribution: empty pmf");
  double total = 0.0;
  for (double p : pmf_) {
    require(p >= 0.0, "DiscreteDistribution: negative probability");
    total += p;
  }
  require(std::fabs(total - 1.0) <= tol,
          "DiscreteDistribution: pmf sums to " + std::to_string(total) +
              ", not 1");
  for (double& p : pmf_) p /= total;
}

DiscreteDistribution DiscreteDistribution::uniform(std::size_t n) {
  require(n > 0, "uniform: domain size must be positive");
  return DiscreteDistribution(
      std::vector<double>(n, 1.0 / static_cast<double>(n)));
}

const AliasSampler& DiscreteDistribution::sampler() const {
  if (!sampler_) sampler_ = std::make_shared<AliasSampler>(pmf_);
  return *sampler_;
}

std::uint64_t DiscreteDistribution::sample(Rng& rng) const {
  return sampler().sample(rng);
}

void DiscreteDistribution::sample_many(Rng& rng, std::size_t count,
                                       std::vector<std::uint64_t>& out) const {
  sampler().sample_many(rng, count, out);
}

double DiscreteDistribution::l1_distance(
    const DiscreteDistribution& other) const {
  require(domain_size() == other.domain_size(),
          "l1_distance: domain size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    acc += std::fabs(pmf_[i] - other.pmf_[i]);
  }
  return acc;
}

double DiscreteDistribution::tv_distance(
    const DiscreteDistribution& other) const {
  return 0.5 * l1_distance(other);
}

double DiscreteDistribution::l2_distance(
    const DiscreteDistribution& other) const {
  require(domain_size() == other.domain_size(),
          "l2_distance: domain size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    const double d = pmf_[i] - other.pmf_[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double DiscreteDistribution::kl_divergence(
    const DiscreteDistribution& other) const {
  require(domain_size() == other.domain_size(),
          "kl_divergence: domain size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    if (pmf_[i] == 0.0) continue;
    if (other.pmf_[i] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    acc += pmf_[i] * std::log2(pmf_[i] / other.pmf_[i]);
  }
  return acc;
}

double DiscreteDistribution::chi2_divergence(
    const DiscreteDistribution& other) const {
  require(domain_size() == other.domain_size(),
          "chi2_divergence: domain size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    const double d = pmf_[i] - other.pmf_[i];
    if (d == 0.0) continue;
    if (other.pmf_[i] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    acc += d * d / other.pmf_[i];
  }
  return acc;
}

double DiscreteDistribution::entropy() const {
  double acc = 0.0;
  for (double p : pmf_) {
    if (p > 0.0) acc -= p * std::log2(p);
  }
  return acc;
}

double DiscreteDistribution::l1_from_uniform() const {
  const double u = 1.0 / static_cast<double>(pmf_.size());
  double acc = 0.0;
  for (double p : pmf_) acc += std::fabs(p - u);
  return acc;
}

DiscreteDistribution DiscreteDistribution::power(unsigned q,
                                                 std::size_t max_cells) const {
  require(q >= 1, "power: q must be at least 1");
  const std::size_t n = pmf_.size();
  std::size_t cells = 1;
  for (unsigned i = 0; i < q; ++i) {
    if (cells > max_cells / n) {
      throw CapacityError("power: n^q exceeds max_cells (" +
                          std::to_string(max_cells) + ")");
    }
    cells *= n;
  }
  std::vector<double> out(cells, 1.0);
  // out[idx] = prod over positions j of pmf_[digit_j(idx)], digits base n.
  for (std::size_t idx = 0; idx < cells; ++idx) {
    std::size_t rest = idx;
    double p = 1.0;
    for (unsigned j = 0; j < q; ++j) {
      p *= pmf_[rest % n];
      rest /= n;
    }
    out[idx] = p;
  }
  return DiscreteDistribution(std::move(out), 1e-6);
}

DiscreteDistribution DiscreteDistribution::mix(
    const DiscreteDistribution& other, double w) const {
  require(domain_size() == other.domain_size(), "mix: domain size mismatch");
  require(w >= 0.0 && w <= 1.0, "mix: weight must be in [0,1]");
  std::vector<double> out(pmf_.size());
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    out[i] = (1.0 - w) * pmf_[i] + w * other.pmf_[i];
  }
  return DiscreteDistribution(std::move(out));
}

}  // namespace duti
