// Distributed learning demo (Theorem 1.4 territory): k nodes, q samples
// each, ONE bit per node, and the referee reconstructs the whole unknown
// distribution. Shows the error falling as nodes are added, and the
// trade-off against samples-per-node.
//
//   ./learning_demo [--n=32] [--q=8]
#include <iostream>

#include "core/predictions.hpp"
#include "dist/generators.hpp"
#include "testers/learner.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  const auto n = cli.get_uint<std::uint64_t>("n", 32);
  const auto q = cli.get_uint<unsigned>("q", 8);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 3);
  const auto reps = cli.get_uint<int>("reps", 12);
  cli.reject_unread();

  // The unknown distribution the network must learn.
  const auto truth = gen::zipf(n, 1.0);
  std::cout << "unknown distribution: Zipf(1.0) on " << n
            << " elements (entropy " << format_double(truth.entropy())
            << " bits)\neach node: " << q
            << " samples, 1 bit to the referee\n\n";

  Table table({"nodes k", "mean l1 error", "paper lower bound needs k >="});
  double last_error = 2.0;
  for (std::uint64_t k = n; k <= n * 1024; k *= 4) {
    const StochasticRoundingLearner learner(n, k, q);
    std::vector<double> errors;
    for (int t = 0; t < reps; ++t) {
      Rng rng = make_rng(seed, k, t);
      errors.push_back(learner.learn_l1_error(truth, rng));
    }
    last_error = mean(errors);
    table.add_row({static_cast<std::int64_t>(k), last_error,
                   predict::thm14_learning_k(static_cast<double>(n),
                                             static_cast<double>(q))});
  }
  table.print(std::cout, "learning error vs network size");

  // Show one reconstruction side by side.
  const StochasticRoundingLearner learner(n, n * 1024, q);
  Rng rng = make_rng(seed, 999);
  const DistributionSource source(truth);
  const auto learned = learner.learn(source, rng);
  Table recon({"element", "true pmf", "learned pmf"});
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n, 8); ++i) {
    recon.add_row({static_cast<std::int64_t>(i), truth.pmf(i),
                   learned.pmf(i)});
  }
  recon.print(std::cout, "reconstruction at the largest k (first 8 keys)");
  std::cout << "\nfinal l1 error: " << format_double(learned.l1_distance(truth))
            << "\n";
  return last_error < 0.3 ? 0 : 1;
}
