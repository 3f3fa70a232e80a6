// Ablation D1 — exact enumeration vs Monte-Carlo estimation of the
// z-moments E_z[(nu_z(G)-mu(G))^2].
//
// The tests validate the Monte-Carlo estimators against exact enumeration
// on small universes; this ablation quantifies the trade-off: how many
// z-samples does the MC estimator need to reach a given relative error,
// and what does each method cost? The table justifies the defaults used by
// the lemma benches.
//
// duti-lint: allow-file(no-wall-clock) -- the time column is the cost half
// of this ablation; the moments themselves depend only on seeded streams.
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "core/message_analysis.hpp"
#include "fourier/families.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "ablation_estimators --ell=3 --q=2 --eps=0.2 --seed=1\n";
    return 0;
  }
  const auto ell = cli.get_uint<unsigned>("ell", 3);
  const auto q = cli.get_uint<unsigned>("q", 2);
  const double eps = cli.get_double("eps", 0.2);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  bench::accept_quick(cli);
  cli.reject_unread();

  bench::banner("Ablation D1: exact vs Monte-Carlo z-moment estimation",
                "expected: MC relative error ~ 1/sqrt(trials); exact "
                "enumeration feasible only for ell <= 4");

  Rng fn_rng(seed);
  const SampleTupleCodec codec(CubeDomain(ell), q);
  const auto g = fn::random_boolean(codec.total_bits(), 0.3, fn_rng);
  const MessageAnalysis analysis(codec, g);

  // An estimator's result and the milliseconds it took.
  const auto timed = [](const auto& estimate) {
    const auto start = std::chrono::steady_clock::now();
    auto moments = estimate();
    return std::pair(moments, 1e3 * bench::seconds_since(start));
  };
  const auto [exact, exact_ms] =
      timed([&] { return analysis.z_moments_exact(eps); });

  Table table({"method", "z trials", "second moment", "rel error",
               "time (ms)"});
  table.add_row({std::string("exact"),
                 static_cast<std::int64_t>(1LL << (1 << ell)),
                 exact.second_moment, 0.0, exact_ms});
  for (std::size_t trials : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    Rng rng(derive_seed(seed, trials));
    const auto [mc, mc_ms] =
        timed([&] { return analysis.z_moments_mc(eps, trials, rng); });
    const double rel =
        exact.second_moment > 0.0
            ? std::fabs(mc.second_moment - exact.second_moment) /
                  exact.second_moment
            : 0.0;
    table.add_row({std::string("monte-carlo"),
                   static_cast<std::int64_t>(trials), mc.second_moment, rel,
                   mc_ms});
  }
  table.print(std::cout, "D1 ablation (ell=" + std::to_string(ell) +
                             ", q=" + std::to_string(q) + ")");
  table.write_csv(bench::output_dir() + "/ablation_estimators.csv");
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
