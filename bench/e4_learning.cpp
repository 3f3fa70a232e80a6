// E4 — Theorem 1.4 (distributed learning of an unknown distribution).
//
// Paper claim (lower bound): any q-query 1-bit protocol computing a
// delta-approximation needs k = Omega(n^2/q^2) nodes. The natural 1-bit
// upper bound we implement (presence-bit learner) needs
// k = O(n^2/(q delta^2)) — a factor-q gap the paper leaves open.
//
// The bench measures the minimal k (in multiples of n) at which the
// learner's l1 error hits the target on both uniform and structured
// truths, across q. Checks reported:
//   (1) consistency — every measured k* lies ABOVE the paper's n^2/q^2
//       lower-bound curve;
//   (2) the measured decay exponent of k* in q (expected near -1 for this
//       protocol; the paper's bound only forbids anything below -2).
#include <iostream>

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e4_learning --n=64 --delta=0.3 --qs=1,2,4,8,16 "
                 "--trials=40 --seed=1\n";
    return 0;
  }
  const Cli& c = cli;
  const auto n = c.get_uint<std::uint64_t>("n", 64);
  const double delta = c.get_double("delta", 0.3);
  // --quick shrinks the default axis only; an explicit --qs wins.
  const auto qs = c.get_uint_list<std::int64_t>(
      "qs", c.get_bool("quick", false)
                ? std::vector<std::int64_t>{1, 4, 16}
                : std::vector<std::int64_t>{1, 2, 4, 8, 16});
  const auto trials = c.get_uint<std::size_t>("trials", 40);
  const auto seed = c.get_uint<std::uint64_t>("seed", 1);

  bench::banner("E4  distributed learning, k* vs q  [Thm 1.4]",
                "expected: measured k* above the paper's n^2/q^2 lower "
                "bound; this 1-bit protocol decays like ~n^2/q (gap open)");

  // One raw point per q (the learning probe is not a uniformity probe, so
  // it bypasses the cache); the points run in one engine wave.
  const SweepResult sweep =
      run_sweep(bench::e4_points(n, delta, qs, trials, seed),
                bench::sweep_engine_config(c));
  bench::print_sweep_summary("e4", sweep);

  Table table({"q", "k* (measured, multiples of n)", "thm1.4 lower bound",
               "natural upper-bound shape n^2/q"});
  std::vector<double> xs, measured, lower_curve;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto q = qs[i];
    const SweepPointResult& point = sweep.points[i];
    if (!point.found) {
      std::cout << "q=" << q << ": search failed\n";
      continue;
    }
    const double k_star = static_cast<double>(point.minimum * n);
    const double lower = predict::thm14_learning_k(static_cast<double>(n),
                                                   static_cast<double>(q));
    table.add_row({q, static_cast<std::int64_t>(point.minimum), lower,
                   static_cast<double>(n) * static_cast<double>(n) /
                       static_cast<double>(q)});
    xs.push_back(static_cast<double>(q));
    measured.push_back(k_star);
    lower_curve.push_back(lower);
  }
  table.print(std::cout, "E4: nodes needed to learn to l1 error delta");
  table.write_csv(bench::output_dir() + "/e4_learning.csv");

  if (xs.size() >= 2) {
    const auto fit = fit_power_law(xs, measured);
    std::cout << "measured decay exponent of k* in q: "
              << format_double(fit.slope)
              << "  (protocol theory: ~-1; paper forbids below -2)\n";
    bool consistent = true;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // The paper's Omega() hides a constant; demand consistency at c=1/4.
      if (measured[i] < 0.25 * lower_curve[i]) consistent = false;
    }
    std::cout << "measured k* consistent with the n^2/q^2 lower bound: "
              << (consistent ? "YES" : "NO") << "\n";
    return (consistent && fit.slope > -2.0) ? 0 : 1;
  }
  return 0;
}
