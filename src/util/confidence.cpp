#include "util/confidence.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace duti {

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) {
  require(successes <= trials, "wilson_interval: successes > trials");
  require(z > 0.0, "wilson_interval: z must be positive");
  if (trials == 0) return Interval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  Interval out;
  out.lo = std::max(0.0, center - half);
  out.hi = std::min(1.0, center + half);
  return out;
}

std::uint64_t hoeffding_trials(double margin, double delta) {
  require(margin > 0.0 && margin < 1.0, "hoeffding_trials: margin in (0,1)");
  require(delta > 0.0 && delta < 1.0, "hoeffding_trials: delta in (0,1)");
  const double n = std::log(2.0 / delta) / (2.0 * margin * margin);
  return static_cast<std::uint64_t>(std::ceil(n));
}

double normal_quantile(double p) {
  require(p > 0.0 && p < 1.0, "normal_quantile: p in (0,1)");
  // Acklam's rational approximation, three regions.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double union_bound_z(double delta, std::uint64_t checks) {
  require(delta > 0.0 && delta < 1.0, "union_bound_z: delta in (0,1)");
  require(checks >= 1, "union_bound_z: need at least one check");
  const double per_check = delta / static_cast<double>(checks);
  return normal_quantile(1.0 - 0.5 * per_check);
}

}  // namespace duti
