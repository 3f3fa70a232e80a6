// Centralized uniformity testers — the q = Theta(sqrt(n)/eps^2) baseline
// [Goldreich-Ron'00, Paninski'08] that every distributed tester is compared
// against (bench E8, and the "one node draws everything" strawman of the
// introduction).
#pragma once

#include <cstdint>
#include <span>

#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

/// Collision-count tester: accept iff the pair-collision count among the q
/// samples is below the midpoint between the uniform expectation
/// C(q,2)/n and the far-case floor C(q,2)(1+eps^2)/n.
class CentralizedCollisionTester {
 public:
  /// Tester for universe size n and proximity eps, using q samples.
  CentralizedCollisionTester(std::uint64_t n, double eps, unsigned q);

  /// Number of samples sufficient for constant (2/3) success, with the
  /// constant `c` in q = c * sqrt(n)/eps^2 (empirically c ~ 3 suffices).
  [[nodiscard]] static unsigned sufficient_q(std::uint64_t n, double eps,
                                             double c = 3.0);

  [[nodiscard]] unsigned q() const noexcept { return q_; }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  /// Decide from an explicit sample vector: true = accept (looks uniform).
  [[nodiscard]] bool accept(std::span<const std::uint64_t> samples) const;

  /// Draw q samples from `source` and decide.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

 private:
  std::uint64_t n_;
  double eps_;
  unsigned q_;
  double threshold_;
};

/// Paninski's coincidence tester: with q <= sqrt(n) samples most values are
/// distinct; accept iff the number of *distinct* values is above a
/// threshold between the uniform and far expectations. Kept as an
/// independent baseline; both testers agree on who wins in every bench.
class PaninskiCoincidenceTester {
 public:
  PaninskiCoincidenceTester(std::uint64_t n, double eps, unsigned q);

  [[nodiscard]] unsigned q() const noexcept { return q_; }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  [[nodiscard]] bool accept(std::span<const std::uint64_t> samples) const;
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

 private:
  std::uint64_t n_;
  double eps_;
  unsigned q_;
  double threshold_;
};

/// Chi-squared-style tester [Diakonikolas-Kane'16 / DGPP'18 flavour]:
/// the statistic sum_a ((c_a - q/n)^2 - c_a) / (q/n) over element counts
/// c_a has mean q n ||mu - U||_2^2 - n ||mu||_2^2 (= -1 under uniform,
/// >= q eps^2 - 1 - eps^2 when eps-far) and variance ~ 2n under uniform,
/// so it separates at q = O(sqrt(n)/eps^2) like the collision tester but
/// with a smaller constant in the dense regime (compared in bench E8).
class ChiSquaredTester {
 public:
  ChiSquaredTester(std::uint64_t n, double eps, unsigned q);

  [[nodiscard]] unsigned q() const noexcept { return q_; }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  /// The statistic itself (exposed for tests). Throws InvalidArgument,
  /// naming the sample and the domain, on a sample outside [0, n).
  [[nodiscard]] double statistic(std::span<const std::uint64_t> samples) const;

  [[nodiscard]] bool accept(std::span<const std::uint64_t> samples) const;
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

 private:
  std::uint64_t n_;
  double eps_;
  unsigned q_;
  double threshold_;
};

}  // namespace duti
