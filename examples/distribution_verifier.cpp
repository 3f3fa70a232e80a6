// Distribution verifier — the paper's second motivating scenario.
//
// A distributed algorithm was designed assuming its input stream follows a
// KNOWN distribution eta (say, a Zipf workload model). Before running it,
// the system verifies the assumption: "is the live input distributed like
// eta, or is it far from eta?" Identity testing reduces to uniformity
// testing [Goldreich'16]: map each sample through a bucket expansion built
// from eta, then run the distributed uniformity tester on the expanded
// domain.
//
//   ./distribution_verifier [--n=64] [--k=32] [--eps=0.5]
#include <cmath>
#include <iostream>

#include "dist/generators.hpp"
#include "testers/distributed.hpp"
#include "testers/identity_reduction.hpp"
#include "util/cli.hpp"
#include "util/confidence.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  const auto n = cli.get_uint<std::uint64_t>("n", 64);
  const auto k = cli.get_uint<unsigned>("k", 32);
  const double eps = cli.get_double("eps", 0.5);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 5);
  const auto reps = cli.get_uint<int>("reps", 100);
  cli.reject_unread();

  // The workload model the algorithm was designed for.
  const auto eta = gen::zipf(n, 1.0);
  std::cout << "workload model eta = Zipf(1.0) on " << n
            << " keys; verifying live input against it with " << k
            << " nodes\n";

  // Build the reduction: expanded domain of 64*n cells.
  const std::uint64_t expanded = 64 * n;
  const IdentityReduction reduction(eta, expanded);
  std::cout << "bucket expansion: " << expanded
            << " cells, rounding error "
            << format_double(reduction.rounding_error()) << " (l1)\n\n";

  // Uniformity tester on the expanded domain.
  const auto q = static_cast<unsigned>(
      4.0 * std::sqrt(static_cast<double>(expanded) /
                      static_cast<double>(k)) /
      (eps * eps));
  Rng calib_rng = make_rng(seed, 0);
  const DistributedThresholdTester tester({expanded, k, q, eps}, calib_rng);
  std::cout << "each node draws " << q
            << " samples and sends 1 bit per verification\n\n";

  struct Scenario {
    std::string name;
    DiscreteDistribution live;
    bool should_pass;
  };
  const std::vector<Scenario> scenarios{
      {"live == eta (healthy)", eta, true},
      {"uniform traffic (model broken)", DiscreteDistribution::uniform(n),
       false},
      {"one hot key (attack)", gen::dirac_mixture(n, 0, 0.5), false},
      {"eta with flattened tail", eta.mix(DiscreteDistribution::uniform(n),
                                          0.6),
       false},
  };

  Table table({"live input", "l1 dist to eta", "verifier pass rate",
               "verdict"});
  bool all_correct = true;
  for (const auto& scenario : scenarios) {
    const double dist = scenario.live.l1_distance(eta);
    const DistributionSource live_source(scenario.live);
    const ReducedSource reduced(live_source, reduction);
    SuccessCounter passes;
    for (int t = 0; t < reps; ++t) {
      Rng rng = make_rng(seed, 2, t, passes.trials());
      passes.record(tester.run(reduced, rng));
    }
    const bool verdict_ok = scenario.should_pass
                                ? passes.rate() >= 2.0 / 3.0
                                : passes.rate() <= 1.0 / 3.0;
    if (!verdict_ok) all_correct = false;
    table.add_row({scenario.name, dist, passes.rate(),
                   std::string(verdict_ok ? "correct" : "WRONG")});
  }
  table.print(std::cout, "verification outcomes");
  std::cout << "\n(The middle scenarios are far from eta; per the paper, "
               "testing identity to ANY fixed\n distribution costs no more "
               "than uniformity testing — uniformity is complete.)\n";
  return all_correct ? 0 : 1;
}
