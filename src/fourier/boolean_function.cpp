#include "fourier/boolean_function.hpp"

#include <cmath>

#include "fourier/wht.hpp"
#include "util/error.hpp"

namespace duti {

BooleanCubeFunction::BooleanCubeFunction(std::vector<double> values)
    : values_(std::move(values)) {
  require(!values_.empty() && is_pow2(values_.size()),
          "BooleanCubeFunction: size must be a power of two");
  m_ = values_.size() == 1 ? 0 : floor_log2(values_.size());
  require(m_ <= 26, "BooleanCubeFunction: at most 26 variables");
}

BooleanCubeFunction BooleanCubeFunction::tabulate(
    unsigned m, const std::function<double(std::uint64_t)>& fn) {
  require(m <= 26, "tabulate: at most 26 variables");
  std::vector<double> values(1ULL << m);
  for (std::uint64_t x = 0; x < values.size(); ++x) values[x] = fn(x);
  return BooleanCubeFunction(std::move(values));
}

bool BooleanCubeFunction::is_boolean01(double tol) const noexcept {
  for (double v : values_) {
    if (std::fabs(v) > tol && std::fabs(v - 1.0) > tol) return false;
  }
  return true;
}

double BooleanCubeFunction::mean() const {
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double BooleanCubeFunction::variance() const {
  double s1 = 0.0, s2 = 0.0;
  for (double v : values_) {
    s1 += v;
    s2 += v * v;
  }
  const auto n = static_cast<double>(values_.size());
  const double m = s1 / n;
  return s2 / n - m * m;
}

const std::vector<double>& BooleanCubeFunction::fourier() const {
  if (fourier_cache_.empty()) {
    fourier_cache_ = values_;
    wht_normalized(fourier_cache_);
  }
  return fourier_cache_;
}

double BooleanCubeFunction::fourier_coefficient(std::uint64_t s_mask) const {
  require(s_mask < values_.size(), "fourier_coefficient: mask out of range");
  return fourier()[s_mask];
}

double BooleanCubeFunction::level_weight(unsigned level) const {
  const auto& coeffs = fourier();
  double acc = 0.0;
  for (std::uint64_t s = 0; s < coeffs.size(); ++s) {
    if (static_cast<unsigned>(std::popcount(s)) == level) {
      acc += coeffs[s] * coeffs[s];
    }
  }
  return acc;
}

BooleanCubeFunction BooleanCubeFunction::restrict_vars(
    std::uint64_t fixed_mask, std::uint64_t fixed_values) const {
  require(fixed_mask < (1ULL << m_), "restrict_vars: mask out of range");
  require((fixed_values & ~fixed_mask) == 0,
          "restrict_vars: values outside mask");
  const unsigned free_count =
      m_ - static_cast<unsigned>(std::popcount(fixed_mask));
  std::vector<double> out(1ULL << free_count);
  // Map each dense free-assignment index to the original point by scattering
  // its bits into the free positions (in increasing variable order).
  for (std::uint64_t packed = 0; packed < out.size(); ++packed) {
    std::uint64_t x = fixed_values;
    std::uint64_t remaining = packed;
    for (unsigned v = 0; v < m_; ++v) {
      if ((fixed_mask >> v) & 1ULL) continue;
      x |= (remaining & 1ULL) << v;
      remaining >>= 1ULL;
    }
    out[packed] = values_[x];
  }
  return BooleanCubeFunction(std::move(out));
}

}  // namespace duti
