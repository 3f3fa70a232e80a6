// E10 — the asymmetric-cost model of Section 6.2.
//
// Paper claim: if player i samples at rate T_i for tau time units
// (q_i = T_i * tau), the optimal time is tau = Theta(sqrt(n)/(eps^2 ||T||_2))
// — only the l2 norm of the rate vector matters, not its shape.
//
// The bench measures the minimal integer tau for several rate vectors with
// DIFFERENT shapes but controlled l2 norms, and checks that
// tau* x ||T||_2 is approximately the same constant across shapes.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e10_asymmetric --n=4096 --eps=0.5 --trials=150\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = cli.get_uint<std::uint64_t>("n", 4096);
  const double eps = cli.get_double("eps", 0.5);
  cli.reject_unread();

  bench::banner("E10  asymmetric sampling rates  [Section 6.2]",
                "expected: tau* ~ sqrt(n)/(eps^2 ||T||_2); tau* x ||T||_2 "
                "approximately constant across rate-vector shapes");

  // One declarative point per rate shape, axis ||T||_2; the cold
  // full-budget baseline gives identical minima (micro_sweep checks it).
  const auto shapes = bench::e10_shapes();
  const SweepResult sweep = run_sweep(
      bench::e10_points(n, eps, shapes, flags.trials, flags.seed));
  bench::print_sweep_summary("e10", sweep);
  const std::size_t failed = bench::failed_searches(sweep);

  Table table({"rate vector", "||T||_2", "tau* (measured)",
               "predicted sqrt(n)/(eps^2 ||T||_2)", "tau* x ||T||_2"});
  std::vector<double> products;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const SweepPointResult& point = sweep.points[i];
    if (!point.found) continue;
    const double product = static_cast<double>(point.minimum) * point.axis;
    products.push_back(product);
    table.add_row({shapes[i].name, point.axis,
                   static_cast<std::int64_t>(point.minimum),
                   predict::asymmetric_tau(static_cast<double>(n), eps,
                                           shapes[i].rates),
                   product});
  }
  table.print(std::cout, "E10: time-to-decision vs rate-vector shape");
  table.write_csv(bench::output_dir() + "/e10_asymmetric.csv");
  const char* const kVerdict = "spread of tau* x ||T||_2 across shapes";
  if (failed > 0) return bench::not_judged({kVerdict}, failed);
  if (products.size() >= 2) {
    const double lo = *std::min_element(products.begin(), products.end());
    const double hi = *std::max_element(products.begin(), products.end());
    std::cout << kVerdict << ": " << format_double(hi / lo)
              << "x (paper: constant)\n";
    return hi / lo < 3.0 ? 0 : 1;
  }
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
