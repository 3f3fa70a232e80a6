#include "testers/closeness.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

std::uint64_t cross_collisions(std::span<const std::uint64_t> p_samples,
                               std::span<const std::uint64_t> q_samples) {
  // Sort one side, binary-search run lengths for the other: O((a+b) log a).
  std::vector<std::uint64_t> sorted(p_samples.begin(), p_samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t total = 0;
  for (const auto v : q_samples) {
    const auto range = std::equal_range(sorted.begin(), sorted.end(), v);
    total += static_cast<std::uint64_t>(range.second - range.first);
  }
  return total;
}

ClosenessTester::ClosenessTester(std::uint64_t n, double eps, unsigned m)
    : n_(n), eps_(eps), m_(m) {
  require(n >= 2, "ClosenessTester: n must be >= 2");
  require(eps > 0.0 && eps <= 2.0, "ClosenessTester: eps in (0,2]");
  require(m >= 2, "ClosenessTester: m must be >= 2");
  // E[S] = ||p - q||_2^2: zero when equal, >= eps^2/n when eps-far in l1.
  threshold_ = 0.5 * eps * eps / static_cast<double>(n);
}

unsigned ClosenessTester::sufficient_m(std::uint64_t n, double eps,
                                       double c) {
  require(n >= 2, "sufficient_m: n must be >= 2");
  require(eps > 0.0 && eps <= 2.0, "sufficient_m: eps in (0,2]");
  require(c > 0.0, "sufficient_m: c must be positive");
  // The l2-closeness estimator concentrates at m = O(sqrt(n)/eps^2) for
  // distributions with ||p||_2 = O(1/sqrt(n)) (the near-uniform regime);
  // heavier distributions need the standard n^{2/3} correction, which the
  // c constant absorbs at these scales.
  const double md = c * std::sqrt(static_cast<double>(n)) / (eps * eps);
  return static_cast<unsigned>(std::ceil(std::max(2.0, md)));
}

double ClosenessTester::statistic(
    std::span<const std::uint64_t> p_samples,
    std::span<const std::uint64_t> q_samples) const {
  require(p_samples.size() == m_ && q_samples.size() == m_,
          "ClosenessTester: wrong sample counts");
  const double md = static_cast<double>(m_);
  const double pairs = 0.5 * md * (md - 1.0);
  const double within =
      static_cast<double>(collision_pairs(p_samples, n_)) / pairs +
      static_cast<double>(collision_pairs(q_samples, n_)) / pairs;
  const double cross =
      2.0 * static_cast<double>(cross_collisions(p_samples, q_samples)) /
      (md * md);
  return within - cross;
}

bool ClosenessTester::accept(std::span<const std::uint64_t> p_samples,
                             std::span<const std::uint64_t> q_samples) const {
  return statistic(p_samples, q_samples) < threshold_;
}

bool ClosenessTester::run(const SampleSource& p_source,
                          const SampleSource& q_source, Rng& rng) const {
  require(p_source.domain_size() == n_ && q_source.domain_size() == n_,
          "ClosenessTester: domain size mismatch");
  std::vector<std::uint64_t> p_samples, q_samples;
  p_source.sample_many(rng, m_, p_samples);
  q_source.sample_many(rng, m_, q_samples);
  return accept(p_samples, q_samples);
}

}  // namespace duti
