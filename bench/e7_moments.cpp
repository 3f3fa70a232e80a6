// E7 — Proposition 5.2 and Lemma 5.5 (the evenly-covered combinatorics).
//
// Paper claims:
//   * |X_S| <= (|S|-1)!! (n/2)^{q-|S|/2}, and |X_S| depends only on |S|;
//   * E_x[a_r(x)^m] <= (4m)^{2mr} (q/sqrt(n/2))^{2mr or 2r} depending on
//     whether q is above or below sqrt(n/2).
//
// The bench computes exact counts/moments (full enumeration where it fits,
// Monte-Carlo beyond) and tabulates exact vs bound; the slack column shows
// how conservative the paper's bounds are.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "fourier/evenly_covered.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e7_moments --seed=1 --mc-trials=100000\n";
    return 0;
  }
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto mc_trials =
      cli.get_uint<std::size_t>("mc-trials", 100000);
  bench::accept_quick(cli);
  cli.reject_unread();

  bench::banner("E7  evenly-covered counts and moments  [Prop 5.2, Lem 5.5]",
                "expected: every exact count/moment below its bound; slack "
                "grows with m and r (the bounds are deliberately loose)");

  Table xs_table({"ell", "q", "|S|", "|X_S| exact", "prop5.2 bound",
                  "bound/exact"});
  bool all_hold = true;
  for (unsigned ell : {2u, 3u, 4u}) {
    for (unsigned q : {4u, 6u}) {
      for (unsigned s_size = 2; s_size <= q; s_size += 2) {
        const double exact = count_x_s(ell, q, s_size);
        const double bound = prop52_bound(ell, q, s_size);
        if (exact > bound * (1.0 + 1e-12)) all_hold = false;
        xs_table.add_row({static_cast<std::int64_t>(ell),
                          static_cast<std::int64_t>(q),
                          static_cast<std::int64_t>(s_size), exact, bound,
                          exact > 0 ? bound / exact : 0.0});
      }
    }
  }
  xs_table.print(std::cout, "E7a: |X_S| exact vs Proposition 5.2");
  xs_table.write_csv(bench::output_dir() + "/e7_xs_counts.csv");

  Table mom_table({"ell", "q", "r", "m", "E[a_r^m]", "lemma5.5 bound",
                   "log slack", "method"});
  Rng rng(seed);
  for (unsigned ell : {2u, 3u, 5u}) {
    for (unsigned q : {4u, 6u, 10u}) {
      for (unsigned r : {1u, 2u}) {
        if (2 * r > q) continue;
        for (unsigned m : {1u, 2u, 3u}) {
          double exact = 0.0;
          std::string method;
          const double tuples = std::pow(std::ldexp(1.0, static_cast<int>(ell)),
                                         static_cast<double>(q));
          if (tuples <= static_cast<double>(1ULL << 22)) {
            exact = a_r_moment_exact(ell, q, r, m);
            method = "exact";
          } else {
            exact = a_r_moment_mc(ell, q, r, m, mc_trials, rng);
            method = "monte-carlo";
          }
          const double log_bound = lemma55_log_bound(ell, q, r, m);
          const double log_exact =
              exact > 0.0 ? std::log(exact)
                          : -std::numeric_limits<double>::infinity();
          if (log_exact > log_bound + 1e-9) all_hold = false;
          mom_table.add_row(
              {static_cast<std::int64_t>(ell), static_cast<std::int64_t>(q),
               static_cast<std::int64_t>(r), static_cast<std::int64_t>(m),
               exact, std::exp(log_bound), log_bound - log_exact, method});
        }
      }
    }
  }
  mom_table.print(std::cout, "E7b: moments of a_r(x) vs Lemma 5.5");
  mom_table.write_csv(bench::output_dir() + "/e7_moments.csv");
  std::cout << "all bounds hold: " << (all_hold ? "YES" : "NO") << "\n";
  return all_hold ? 0 : 1;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
