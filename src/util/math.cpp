#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace duti {

double log_double_factorial(int n) {
  if (n <= 0) return 0.0;
  double out = 0.0;
  for (int i = n; i > 1; i -= 2) out += std::log(static_cast<double>(i));
  return out;
}

std::uint64_t binomial(int n, int k) {
  require(n >= 0, "binomial: n must be non-negative");
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  // Multiplicative formula with 128-bit intermediate to detect overflow.
  __uint128_t out = 1;
  for (int i = 1; i <= k; ++i) {
    out = out * static_cast<unsigned>(n - k + i) / static_cast<unsigned>(i);
    if (out > std::numeric_limits<std::uint64_t>::max()) {
      throw InvalidArgument("binomial: uint64 overflow for C(" +
                            std::to_string(n) + "," + std::to_string(k) + ")");
    }
  }
  return static_cast<std::uint64_t>(out);
}

double log_factorial(int n) {
  require(n >= 0, "log_factorial: n must be non-negative");
  // lgamma_r, not std::lgamma: the latter writes the global `signgam`, a
  // data race when testers are constructed concurrently (sweep points run
  // as pool tasks). The sign is always +1 here (argument >= 1).
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double log_binomial(int n, int k) {
  require(n >= 0, "log_binomial: n must be non-negative");
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double dpow_int(double base, unsigned exp) {
  double out = 1.0;
  double b = base;
  while (exp > 0) {
    if (exp & 1U) out *= b;
    b *= b;
    exp >>= 1U;
  }
  return out;
}

double binomial_upper_tail(int n, double p, int t) {
  require(n >= 0, "binomial_upper_tail: n must be non-negative");
  require(p >= 0.0 && p <= 1.0, "binomial_upper_tail: p in [0,1]");
  if (t <= 0) return 1.0;
  if (t > n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  double acc = 0.0;
  const double lp = std::log(p);
  const double lq = std::log1p(-p);
  for (int i = t; i <= n; ++i) {
    acc += std::exp(log_binomial(n, i) + i * lp + (n - i) * lq);
  }
  return std::min(1.0, acc);
}

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  require(x.size() == y.size(), "fit_line: size mismatch");
  require(x.size() >= 2, "fit_line: need at least two points");
  const auto n = static_cast<double>(x.size());
  // duti-lint: allow(pure-float-reduce) -- serial fold over one sweep's
  // handful of points, in container order; never a cross-thread tally.
  const double sx = std::accumulate(x.begin(), x.end(), 0.0);
  // duti-lint: allow(pure-float-reduce) -- same fixed-order serial fold.
  const double sy = std::accumulate(y.begin(), y.end(), 0.0);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  require(std::fabs(denom) > 1e-300, "fit_line: degenerate x values");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += e * e;
  }
  fit.r_squared = (ss_tot > 0.0) ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y) {
  require(x.size() == y.size(), "fit_power_law: size mismatch");
  std::vector<double> lx, ly;
  lx.reserve(x.size());
  ly.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    require(x[i] > 0.0 && y[i] > 0.0, "fit_power_law: data must be positive");
    lx.push_back(std::log(x[i]));
    ly.push_back(std::log(y[i]));
  }
  return fit_line(lx, ly);
}

double mean(const std::vector<double>& values) {
  require(!values.empty(), "mean: empty input");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double sample_variance(const std::vector<double>& values) {
  require(values.size() >= 2, "sample_variance: need at least two values");
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / (static_cast<double>(values.size()) - 1.0);
}

}  // namespace duti
