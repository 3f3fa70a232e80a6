// Quickstart: distributed uniformity testing in ~40 lines.
//
// A 64-node network wants to know whether an unknown distribution on a
// domain of 4096 elements is uniform or at least 0.5-far from uniform.
// Each node draws a small number of samples, sends ONE bit to a referee,
// and the referee applies a threshold rule — the sample-optimal setup per
// Theorem 1.1 of Meir-Minzer-Oshman (PODC 2019).
//
//   ./quickstart [--n=4096] [--k=64] [--eps=0.5] [--seed=7]
#include <iostream>

#include "core/predictions.hpp"
#include "dist/generators.hpp"
#include "testers/distributed.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  const auto n = cli.get_uint<std::uint64_t>("n", 4096);
  const auto k = cli.get_uint<unsigned>("k", 64);
  const double eps = cli.get_double("eps", 0.5);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 7);
  cli.reject_unread();

  // How many samples per node? The paper says Theta(sqrt(n/k)/eps^2);
  // a constant of 4 is comfortably inside the tester's working regime.
  const auto q = static_cast<unsigned>(
      predict::fmo_threshold_tester_q(static_cast<double>(n),
                                      static_cast<double>(k), eps, 4.0));
  std::cout << "universe n=" << n << ", nodes k=" << k << ", eps=" << eps
            << " -> " << q << " samples per node ("
            << predict::centralized_q(static_cast<double>(n), eps)
            << " would be needed centrally)\n\n";

  // Build the tester; it calibrates its referee threshold by simulating
  // the uniform distribution (which it knows).
  Rng calib_rng = make_rng(seed, 0);
  const DistributedThresholdTester tester({n, k, q, eps}, calib_rng);

  // Scenario 1: the unknown distribution really is uniform.
  const UniformSource uniform(n);
  Rng rng1 = make_rng(seed, 1);
  std::cout << "input = uniform          -> network says: "
            << (tester.run(uniform, rng1) ? "ACCEPT (uniform)"
                                          : "REJECT (not uniform)")
            << "\n";

  // Scenario 2: an adversarial eps-far distribution (random Paninski
  // pairing — the hardest family, per the paper's Section 3).
  Rng gen_rng = make_rng(seed, 2);
  const DistributionSource far(gen::paninski(n, eps, gen_rng));
  Rng rng2 = make_rng(seed, 3);
  std::cout << "input = eps-far paninski -> network says: "
            << (tester.run(far, rng2) ? "ACCEPT (uniform)"
                                      : "REJECT (not uniform)")
            << "\n\n";

  // Repeat both many times to show the 2/3 success guarantee is met.
  int uniform_ok = 0, far_ok = 0;
  const int reps = 100;
  for (int t = 0; t < reps; ++t) {
    Rng ur = make_rng(seed, 4, t);
    if (tester.run(uniform, ur)) ++uniform_ok;
    Rng gr = make_rng(seed, 5, t);
    const DistributionSource f(gen::paninski(n, eps, gr));
    Rng fr = make_rng(seed, 6, t);
    if (!tester.run(f, fr)) ++far_ok;
  }
  std::cout << "over " << reps << " runs: uniform accepted " << uniform_ok
            << "%, far rejected " << far_ok << "% (target: >= 67%)\n";
  return (uniform_ok >= 67 && far_ok >= 67) ? 0 : 1;
}
