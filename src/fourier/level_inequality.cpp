#include "fourier/level_inequality.hpp"

#include <cmath>

#include "util/error.hpp"

namespace duti {

double kkl_level_bound_optimized(double mu, unsigned r) {
  require(mu >= 0.0 && mu <= 1.0, "kkl_level_bound_optimized: mu in [0,1]");
  if (mu == 0.0) return 0.0;
  if (mu == 1.0) return 1.0;
  // Golden-section search for the minimizing delta in (0, 1]. The objective
  // log bound = -r log(delta) + (2/(1+delta)) log(mu) is unimodal in delta.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 1e-9, hi = 1.0;
  auto objective = [&](double d) {
    return -static_cast<double>(r) * std::log(d) +
           2.0 / (1.0 + d) * std::log(mu);
  };
  double a = hi - phi * (hi - lo);
  double b = lo + phi * (hi - lo);
  double fa = objective(a), fb = objective(b);
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-12; ++iter) {
    if (fa < fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - phi * (hi - lo);
      fa = objective(a);
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + phi * (hi - lo);
      fb = objective(b);
    }
  }
  return std::exp(objective(0.5 * (lo + hi)));
}

double level_weight_up_to(const BooleanCubeFunction& f, unsigned r) {
  double acc = 0.0;
  for (unsigned level = 0; level <= r && level <= f.num_vars(); ++level) {
    acc += f.level_weight(level);
  }
  return acc;
}

}  // namespace duti
