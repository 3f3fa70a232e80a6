// Dense representation of a real-valued function on the Boolean cube
// {-1,1}^m, with the Fourier-analytic quantities used by the paper:
// coefficients, mean, variance (Fact 2.2), level weights, Parseval sums,
// and restrictions. Boolean {0,1}-valued functions are the common case
// (players' message functions G), but the class is real-valued so that
// distributions (pmfs over the cube) can use the same machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace duti {

class BooleanCubeFunction {
 public:
  /// From explicit values; size must be 2^m for some m in [0, 26].
  explicit BooleanCubeFunction(std::vector<double> values);

  /// Tabulate `fn` over {-1,1}^m (argument is the encoded point).
  static BooleanCubeFunction tabulate(
      unsigned m, const std::function<double(std::uint64_t)>& fn);

  [[nodiscard]] unsigned num_vars() const noexcept { return m_; }
  [[nodiscard]] std::size_t domain_size() const noexcept {
    return values_.size();
  }
  [[nodiscard]] double value(std::uint64_t x) const {
    return values_.at(x);
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// True iff every value is 0 or 1 (within tol).
  [[nodiscard]] bool is_boolean01(double tol = 1e-12) const noexcept;

  /// E_x[f(x)] under the uniform distribution — the paper's mu(f).
  [[nodiscard]] double mean() const;

  /// var(f) = E[f^2] - E[f]^2 (Fact 2.2 equates this to the non-empty
  /// Fourier weight; tests verify the identity).
  [[nodiscard]] double variance() const;

  /// All 2^m Fourier coefficients, indexed by the character mask S.
  /// Computed once and cached.
  [[nodiscard]] const std::vector<double>& fourier() const;

  /// A single coefficient f_hat(S).
  [[nodiscard]] double fourier_coefficient(std::uint64_t s_mask) const;

  /// Sum of f_hat(S)^2 over |S| = level.
  [[nodiscard]] double level_weight(unsigned level) const;

  /// Restriction: fix the variables in `fixed_mask` to the bits of
  /// `fixed_values`; the result is a function on the remaining variables
  /// (re-indexed densely in increasing original-variable order).
  [[nodiscard]] BooleanCubeFunction restrict_vars(
      std::uint64_t fixed_mask, std::uint64_t fixed_values) const;

 private:
  unsigned m_;
  std::vector<double> values_;
  mutable std::vector<double> fourier_cache_;
};

}  // namespace duti
