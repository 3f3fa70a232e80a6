// Small numeric helpers used across the library: factorial-family functions,
// binomials (exact and logarithmic), integer powers, and float comparisons.
#pragma once

#include <cstdint>
#include <vector>

namespace duti {

/// log(N!!), N!! = N * (N-2) * (N-4) * ... (1 for N <= 0), computed stably
/// for large N. Used by Proposition 5.2: |X_S| <= (|S|-1)!! * (n/2)^{q-|S|/2}.
[[nodiscard]] double log_double_factorial(int n);

/// Exact binomial coefficient C(n, k); throws on overflow of uint64.
[[nodiscard]] std::uint64_t binomial(int n, int k);

/// log(n!) via lgamma_r (no write to the global signgam).
[[nodiscard]] double log_factorial(int n);

/// log C(n, k); returns -inf when k < 0 or k > n.
[[nodiscard]] double log_binomial(int n, int k);

/// base^exp as double (no overflow concerns; exp >= 0).
[[nodiscard]] double dpow_int(double base, unsigned exp);

/// Exact binomial upper tail P(Bin(n, p) >= t), summed in log space.
[[nodiscard]] double binomial_upper_tail(int n, double p, int t);

/// Least-squares fit of y = a + b*x; returns {a, b}.
/// Used to fit log-log slopes in the experiment shape checks.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
[[nodiscard]] LinearFit fit_line(const std::vector<double>& x,
                                 const std::vector<double>& y);

/// Fit y ~ c * x^p on positive data by regressing log y on log x.
/// Returns {log c as intercept, p as slope}.
[[nodiscard]] LinearFit fit_power_law(const std::vector<double>& x,
                                      const std::vector<double>& y);

/// Median of a (copied) vector; throws on empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; throws on empty input.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Unbiased sample variance; throws if fewer than two values.
[[nodiscard]] double sample_variance(const std::vector<double>& values);

}  // namespace duti
