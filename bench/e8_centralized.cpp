// E8 — the centralized baseline [Paninski'08]: q = Theta(sqrt(n)/eps^2).
//
// Every distributed result in the paper is measured against this baseline.
// The bench measures the collision tester's minimal q (a) across n at
// fixed eps (expected log-log slope 1/2) and (b) across eps at fixed n
// (expected slope -2).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e8_centralized --eps=0.5 --n=4096 "
                 "--ns=256,1024,4096,16384 --trials=200\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const double eps = cli.get_double("eps", 0.5);
  const auto n_fixed = cli.get_uint<std::uint64_t>("n", 4096);
  // --quick shrinks the default axis only; an explicit --ns wins.
  const auto ns = cli.get_uint_list<std::int64_t>(
      "ns", flags.quick
                ? std::vector<std::int64_t>{256, 4096}
                : std::vector<std::int64_t>{256, 1024, 4096, 16384});
  const SweepEngineConfig engine = bench::sweep_engine_config(cli);
  cli.reject_unread();

  bench::banner("E8  centralized baseline q* ~ sqrt(n)/eps^2  [Paninski'08]",
                "expected: slope 1/2 in n, slope -2 in eps");

  // Three engine sweeps over the n axis (one per tester family) plus the
  // eps sweep below, all sharing one cache session; seed derivations match
  // the old serial loops exactly.
  const auto trials = flags.trials;
  const auto seed = flags.seed;
  const SweepResult coll_sweep = run_sweep(
      bench::e8_n_points<CentralizedCollisionTester>("collision", ns, eps,
                                                     trials, seed),
      engine);
  const SweepResult chi_sweep = run_sweep(
      bench::e8_n_points<ChiSquaredTester>("chi-squared", ns, eps, trials,
                                           seed, SamplingKernel::kPerSample,
                                           1),
      engine);
  const SweepResult coin_sweep = run_sweep(
      bench::e8_n_points<PaninskiCoincidenceTester>(
          "coincidence", ns, eps, trials, seed, SamplingKernel::kPerSample, 2),
      engine);
  bench::print_sweep_summary("e8_collision", coll_sweep);
  bench::print_sweep_summary("e8_chi", chi_sweep);
  bench::print_sweep_summary("e8_coincidence", coin_sweep);

  Table n_table({"n", "q* collision", "q* chi-squared", "q* coincidence",
                 "predicted sqrt(n)/eps^2"});
  std::vector<double> xs, measured, predicted;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const auto n = ns[i];
    const std::uint64_t q_star =
        coll_sweep.points[i].found ? coll_sweep.points[i].minimum : 0;
    const std::uint64_t q_chi =
        chi_sweep.points[i].found ? chi_sweep.points[i].minimum : 0;
    const std::uint64_t q_coin =
        coin_sweep.points[i].found ? coin_sweep.points[i].minimum : 0;
    if (q_star == 0) continue;
    const double pred = predict::centralized_q(static_cast<double>(n), eps);
    n_table.add_row({n, static_cast<std::int64_t>(q_star),
                     static_cast<std::int64_t>(q_chi),
                     static_cast<std::int64_t>(q_coin), pred});
    xs.push_back(static_cast<double>(n));
    measured.push_back(static_cast<double>(q_star));
    predicted.push_back(pred);
  }
  n_table.print(std::cout, "E8a: q* vs n at eps=" + format_double(eps));
  n_table.write_csv(bench::output_dir() + "/e8_centralized_n.csv");
  double slope_n = 0.0;
  if (xs.size() >= 2) {
    bench::print_shape(xs, measured, predicted, "q* vs n");
    slope_n = fit_power_law(xs, measured).slope;
  }

  Table eps_table({"eps", "q* (measured)", "predicted sqrt(n)/eps^2"});
  std::vector<double> exs, emeasured, epredicted;
  std::vector<double> eps_values{0.25, 0.35, 0.5, 0.7, 1.0};
  if (flags.quick) eps_values = {0.25, 0.5, 1.0};
  const SweepResult eps_sweep = run_sweep(
      bench::e8_eps_points(n_fixed, eps_values, trials, seed), engine);
  bench::print_sweep_summary("e8_eps", eps_sweep);
  for (std::size_t i = 0; i < eps_values.size(); ++i) {
    const double e = eps_values[i];
    const std::uint64_t q_star =
        eps_sweep.points[i].found ? eps_sweep.points[i].minimum : 0;
    if (q_star == 0) continue;
    const double pred =
        predict::centralized_q(static_cast<double>(n_fixed), e);
    eps_table.add_row({e, static_cast<std::int64_t>(q_star), pred});
    exs.push_back(e);
    emeasured.push_back(static_cast<double>(q_star));
    epredicted.push_back(pred);
  }
  eps_table.print(std::cout,
                  "E8b: q* vs eps at n=" + std::to_string(n_fixed));
  eps_table.write_csv(bench::output_dir() + "/e8_centralized_eps.csv");
  double slope_e = 0.0;
  if (exs.size() >= 2) {
    bench::print_shape(exs, emeasured, epredicted, "q* vs eps");
    slope_e = fit_power_law(exs, emeasured).slope;
  }
  const bool ok = std::fabs(slope_n - 0.5) < 0.2 && std::fabs(slope_e + 2.0) < 0.7;
  std::cout << "slopes within tolerance of (1/2, -2): " << (ok ? "YES" : "NO")
            << "\n";
  return ok ? 0 : 1;
}
