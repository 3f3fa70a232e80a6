// Order statistics the benchmark reports timings with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the middle two for an even count); 0 for no samples.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct TailPercentile {
  double percentile = 0.0;  // 0 when no ladder rung qualifies
  double value = 0.0;
  std::size_t beyond = 0;  // samples strictly after the rung's rank
};

/// The percentile rule: the highest rung of {50, 75, 90, 95, 99, 99.9}
/// that has at least ten samples beyond it. A rung p takes the
/// nearest-rank value, rank ceil(p/100 * n), and has n - rank samples
/// beyond it. With fewer than 20 samples no rung qualifies.
[[nodiscard]] inline TailPercentile tail_percentile(std::vector<double> v) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
  TailPercentile out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : kLadder) {
    // The epsilon keeps rungs like 99.9 from rounding a whole rank up.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    if (rank == 0 || n - rank < 10) break;
    out = {p, v[rank - 1], n - rank};
  }
  return out;
}

}  // namespace perfbench
