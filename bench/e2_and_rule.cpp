// E2 — Theorem 1.2 / Theorem 6.5 (the AND decision rule is expensive).
//
// Paper claim: with the AND rule and k <= 2^{c/eps} players, every tester
// needs q = Omega(sqrt(n)/(log^2(k) eps^2)) — adding players buys at most a
// polylog factor, versus the sqrt(k) gain available to arbitrary rules.
//
// This bench measures the minimal per-player q of (a) the calibrated
// AND-rule tester and (b) the calibrated threshold tester, across k. The
// AND curve should stay nearly flat while the threshold curve falls like
// k^{-1/2}; the gap between them at large k is the measured "price of
// locality".
#include <iostream>

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e2_and_rule --n=1024 --eps=0.5 --ks=2,8,32,128,512 "
                 "--trials=150 --seed=1\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = cli.get_uint<std::uint64_t>("n", 1024);
  const double eps = cli.get_double("eps", 0.5);
  // --quick shrinks the default axis only; an explicit --ks wins.
  const auto ks = cli.get_uint_list<std::int64_t>(
      "ks", flags.quick ? std::vector<std::int64_t>{2, 32, 512}
                        : std::vector<std::int64_t>{2, 8, 32, 128, 512});
  cli.reject_unread();

  bench::banner("E2  AND rule vs threshold rule, q* vs k  [Thm 1.2 / 6.5]",
                "expected: AND-rule q* nearly flat in k (polylog gain only); "
                "threshold-rule q* falls like k^{-1/2}");

  // Two engine sweeps over the same k axis — one per decision rule — with
  // the old serial loop's exact seed derivations; they warm-start
  // independently (their minima live on different curves, so cross-rule
  // hints would mislead).
  const auto trials = flags.trials;
  const auto seed = flags.seed;
  const SweepResult and_sweep =
      run_sweep(bench::e2_and_points(n, eps, ks, trials, seed));
  const SweepResult thr_sweep =
      run_sweep(bench::e2_threshold_points(n, eps, ks, trials, seed));
  bench::print_sweep_summary("e2_and", and_sweep);
  bench::print_sweep_summary("e2_thr", thr_sweep);
  const std::size_t failed = bench::failed_searches(and_sweep, thr_sweep);

  Table table({"k", "q* AND rule", "q* threshold rule", "AND/threshold",
               "thm1.2 lower-bound shape", "fmo AND-tester shape"});
  std::vector<double> xs, and_measured, thr_measured;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (!and_sweep.points[i].found || !thr_sweep.points[i].found) continue;
    const auto k = ks[i];
    const std::uint64_t q_and = and_sweep.points[i].minimum;
    const std::uint64_t q_thr = thr_sweep.points[i].minimum;
    table.add_row(
        {k, static_cast<std::int64_t>(q_and),
         static_cast<std::int64_t>(q_thr),
         static_cast<double>(q_and) / static_cast<double>(q_thr),
         predict::thm12_and_rule_q(static_cast<double>(n),
                                   static_cast<double>(k), eps),
         predict::fmo_and_tester_q(static_cast<double>(n),
                                   static_cast<double>(k), eps)});
    xs.push_back(static_cast<double>(k));
    and_measured.push_back(static_cast<double>(q_and));
    thr_measured.push_back(static_cast<double>(q_thr));
  }
  table.print(std::cout, "E2: the price of the local (AND) decision rule");
  table.write_csv(bench::output_dir() + "/e2_and_rule.csv");

  const char* const kVerdict =
      "AND rule measurably flatter than threshold rule";
  if (failed > 0) return bench::not_judged({kVerdict}, failed);
  if (xs.size() >= 2) {
    const auto and_fit = fit_power_law(xs, and_measured);
    const auto thr_fit = fit_power_law(xs, thr_measured);
    std::cout << "measured slope in k:  AND rule = "
              << format_double(and_fit.slope)
              << "  (paper: ~0 up to polylog)\n"
              << "                      threshold = "
              << format_double(thr_fit.slope) << "  (paper: -1/2)\n";
    const bool and_flatter = and_fit.slope > thr_fit.slope + 0.15;
    std::cout << kVerdict << ": " << (and_flatter ? "YES" : "NO") << "\n";
    return and_flatter ? 0 : 1;
  }
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
