// E3 — Theorem 1.3 (T-threshold decision rules).
//
// Paper claim: for k <= sqrt(n) and small T, any T-threshold tester needs
// q = Omega(sqrt(n)/(T log^2(k/eps) eps^2)): the cost falls roughly like
// 1/T until T leaves the "small threshold" window. The bench forces the
// referee threshold T, lets the players use the most aggressive safe local
// rule (see FixedThresholdTester), measures the minimal q per T, and
// checks the ~1/T decay: q* x T should stay within a small band.
#include <iostream>

#include "bench_common.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e3_threshold --n=4096 --k=64 --eps=0.5 --ts=1,2,4,8,16,32 "
                 "--trials=150 --seed=1\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = cli.get_uint<std::uint64_t>("n", 4096);
  const auto k = cli.get_uint<unsigned>("k", 64);
  const double eps = cli.get_double("eps", 0.5);
  // --quick shrinks the default axis only; an explicit --ts wins.
  const auto ts = cli.get_uint_list<std::int64_t>(
      "ts", flags.quick ? std::vector<std::int64_t>{1, 4, 16}
                        : std::vector<std::int64_t>{1, 2, 4, 8, 16, 32});
  cli.reject_unread();

  bench::banner(
      "E3  q* vs forced referee threshold T  [Thm 1.3]",
      "expected: q* ~ sqrt(n)/(T log^2(k/eps) eps^2) in the small-T window "
      "(q* x T roughly constant), flattening once T is large");

  const auto points =
      bench::e3_points(n, k, eps, ts, flags.trials, flags.seed);
  const SweepResult sweep = run_sweep(points);
  bench::print_sweep_summary("e3", sweep);
  const std::size_t failed = bench::failed_searches(sweep);

  Table table({"T", "q* (measured)", "q* x T", "thm1.3 shape",
               "in thm1.3 window (c=10)"});
  std::vector<double> xs, measured, predicted;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!sweep.points[i].found) continue;
    const auto t_forced = ts[i];
    const std::uint64_t q_star = sweep.points[i].minimum;
    const double pred = predict::thm13_threshold_q(
        static_cast<double>(n), static_cast<double>(k), eps,
        static_cast<double>(t_forced));
    const bool in_window = predict::thm13_threshold_applies(
        static_cast<double>(n), static_cast<double>(k), eps,
        static_cast<double>(t_forced), 10.0);
    table.add_row({t_forced, static_cast<std::int64_t>(q_star),
                   static_cast<std::int64_t>(
                       q_star * static_cast<std::uint64_t>(t_forced)),
                   pred, std::string(in_window ? "yes" : "no")});
    xs.push_back(static_cast<double>(t_forced));
    measured.push_back(static_cast<double>(q_star));
    predicted.push_back(pred);
  }
  table.print(std::cout, "E3: cost of small referee thresholds");
  table.write_csv(bench::output_dir() + "/e3_threshold.csv");
  const char* const kAbove = "every measured q* above the Thm 1.3 shape";
  const char* const kCostly = "smaller thresholds cost more samples";
  if (failed > 0) return bench::not_judged({kAbove, kCostly}, failed);
  if (xs.size() >= 2) {
    bench::print_shape(xs, measured, predicted, "q* vs T");
    // Checks. (a) Lower-bound consistency: Theorem 1.3 only FORBIDS testers
    // below ~sqrt(n)/(T polylog eps^2); every measured point must sit above
    // the predicted shape. (b) The qualitative phenomenon: forcing a
    // smaller T costs samples — cost falls substantially from T=1 to the
    // largest tested T. (Our collision-voter family does not meet the 1/T
    // decay itself — the optimal construction in [7] uses T = Theta(1/eps^4)
    // with different local statistics — so the measured slope sits between
    // 0 and -1; see EXPERIMENTS.md.)
    bool consistent = true;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (measured[i] < predicted[i]) consistent = false;
    }
    const double gain = measured.front() / measured.back();
    std::cout << kAbove << ": " << (consistent ? "YES" : "NO") << "\n"
              << "q*(T=" << xs.front() << ") / q*(T=" << xs.back()
              << ") = " << format_double(gain) << "  (" << kCostly << ": "
              << (gain > 1.5 ? "YES" : "NO") << ")\n"
              << "note: at eps=" << format_double(eps)
              << " the Thm 1.3 small-T window is nearly empty (it is an "
                 "asymptotic small-eps regime);\nthe shape row is the "
                 "lower-bound curve, shown for consistency only.\n";
    return (gain > 1.5 && consistent) ? 0 : 1;
  }
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
