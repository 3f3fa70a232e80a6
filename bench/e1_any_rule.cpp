// E1 — Theorem 1.1 / Theorem 6.1 (arbitrary decision rules).
//
// Paper claim: with any decision rule and k <= n/eps^2 players, every
// uniformity tester needs q = Omega(sqrt(n/k)/eps^2) samples per player,
// and the threshold tester of [7] meets this, so the measured minimal q of
// our calibrated threshold tester should scale like sqrt(n/k)/eps^2: a
// log-log slope of -1/2 in k.
//
// This bench sweeps k, measures the minimal q at which the tester clears
// 2/3 two-sided success, prints it against the predicted curve, and also
// prints the Theorem 6.1 lower bound (inequality (13) constants) which
// must lie below every measured point.
#include <iostream>

#include "bench_common.hpp"
#include "core/divergence.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e1_any_rule --n=4096 --eps=0.5 --ks=2,4,8,16,32,64,128,256 "
                 "--trials=150 --seed=1\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = cli.get_uint<std::uint64_t>("n", 4096);
  const double eps = cli.get_double("eps", 0.5);
  // --quick shrinks the default axis only; an explicit --ks wins.
  const auto ks = cli.get_uint_list<std::int64_t>(
      "ks", flags.quick ? std::vector<std::int64_t>{2, 16, 128}
                        : std::vector<std::int64_t>{2, 4, 8, 16, 32, 64, 128,
                                                    256});
  cli.reject_unread();

  bench::banner("E1  any-rule sample complexity vs k  [Thm 1.1 / 6.1]  (k=1 is the centralized case, covered by E8)",
                "expected: q* ~ sqrt(n/k)/eps^2 (slope -1/2 in k); the "
                "Thm 6.1 lower bound sits below every measured point");

  // The whole sweep runs through the engine: one declarative point per k
  // (seed derivations identical to the old serial loop) and anchor-first
  // warm scheduling. The cold full-budget baseline gives bit-identical
  // minima; micro_sweep and test_sweep check that.
  const auto points =
      bench::e1_points(n, eps, ks, flags.trials, flags.seed);
  const SweepResult sweep = run_sweep(points);
  bench::print_sweep_summary("e1", sweep);
  const std::size_t failed = bench::failed_searches(sweep);

  Table table({"k", "q* (measured)", "predicted sqrt(n/k)/eps^2",
               "thm6.1 lower bound", "total k*q*"});
  std::vector<double> xs, measured, predicted;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (!sweep.points[i].found) continue;
    const auto k = ks[i];
    const std::uint64_t q_star = sweep.points[i].minimum;
    const double pred = predict::thm11_any_rule_q(
        static_cast<double>(n), static_cast<double>(k), eps);
    const double lower = theorem61_q_lower_bound(static_cast<double>(n),
                                                 static_cast<double>(k), eps);
    table.add_row({k, static_cast<std::int64_t>(q_star), pred, lower,
                   static_cast<std::int64_t>(q_star * static_cast<std::uint64_t>(k))});
    xs.push_back(static_cast<double>(k));
    measured.push_back(static_cast<double>(q_star));
    predicted.push_back(pred);
  }
  table.print(std::cout, "E1: minimal per-player q vs number of players k");
  table.write_csv(bench::output_dir() + "/e1_any_rule.csv");
  const char* const kVerdict = "Theorem 6.1 lower bound respected at every k";
  if (failed > 0) return bench::not_judged({kVerdict}, failed);
  if (xs.size() >= 2) {
    bench::print_shape(xs, measured, predicted, "q* vs k");
  }

  // Lower-bound consistency: every measured point must be above the
  // Theorem 6.1 bound.
  bool consistent = true;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double lower = theorem61_q_lower_bound(static_cast<double>(n),
                                                 xs[i], eps);
    if (measured[i] < lower) consistent = false;
  }
  std::cout << kVerdict << ": " << (consistent ? "YES" : "NO") << "\n";
  return consistent ? 0 : 1;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
