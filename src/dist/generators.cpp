#include "dist/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace duti::gen {

DiscreteDistribution paninski(std::size_t n, double eps, Rng& rng) {
  return Paninski::random(n, eps, rng).to_distribution();
}

DiscreteDistribution paninski_with_signs(std::size_t n, double eps,
                                         const std::vector<int>& signs) {
  return Paninski::from_signs(n, eps, signs).to_distribution();
}

DiscreteDistribution zipf(std::size_t n, double s) {
  require(n >= 1, "zipf: n must be positive");
  require(s >= 0.0, "zipf: exponent must be non-negative");
  std::vector<double> pmf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pmf[i] = std::pow(static_cast<double>(i + 1), -s);
    total += pmf[i];
  }
  for (double& p : pmf) p /= total;
  return DiscreteDistribution(std::move(pmf));
}

DiscreteDistribution bimodal(std::size_t n, double delta) {
  require(n >= 2 && n % 2 == 0, "bimodal: n must be even and >= 2");
  require(delta >= 0.0 && delta <= 1.0, "bimodal: delta in [0,1]");
  std::vector<double> pmf(n);
  const double base = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    pmf[i] = i < n / 2 ? base * (1.0 + delta) : base * (1.0 - delta);
  }
  return DiscreteDistribution(std::move(pmf));
}

DiscreteDistribution dirac_mixture(std::size_t n, std::size_t heavy,
                                   double w) {
  require(n >= 1, "dirac_mixture: n must be positive");
  require(heavy < n, "dirac_mixture: heavy element out of range");
  require(w >= 0.0 && w <= 1.0, "dirac_mixture: weight in [0,1]");
  std::vector<double> pmf(n, (1.0 - w) / static_cast<double>(n));
  pmf[heavy] += w;
  return DiscreteDistribution(std::move(pmf));
}

DiscreteDistribution random_perturbation(std::size_t n, double eps,
                                         Rng& rng) {
  require(n >= 2 && n % 2 == 0, "random_perturbation: n must be even");
  require(eps >= 0.0 && eps <= 1.0, "random_perturbation: eps in [0,1]");
  // Random perfect matching of the domain, then +-eps/n transfers per pair.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(idx[i - 1], idx[j]);
  }
  std::vector<double> pmf(n, 1.0 / static_cast<double>(n));
  const double d = eps / static_cast<double>(n);
  for (std::size_t p = 0; p < n / 2; ++p) {
    const int sgn = rng.next_sign();
    pmf[idx[2 * p]] += static_cast<double>(sgn) * d;
    pmf[idx[2 * p + 1]] -= static_cast<double>(sgn) * d;
  }
  return DiscreteDistribution(std::move(pmf));
}

}  // namespace duti::gen
