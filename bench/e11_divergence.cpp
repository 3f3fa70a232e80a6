// E11 — the information-theoretic pipeline of Section 6 (Theorem 6.1's
// proof), step by step, on exact small-universe computations:
//
//   (11): E_z[D(nu_z(G) || mu(G))]  <=  chi-squared cap (Fact 6.3)
//   (12): chi-squared cap           <=  Lemma 4.2 rhs / ln 2
//   (9)/(10): the per-player divergences ADD across independent players,
//             and testing requires total divergence >= (1/10) log(1/delta).
//
// The bench tabulates each quantity for the collision-voter message
// function across (q, eps), then inverts the chain to print the implied
// minimal k at each q — the discrete heart of Theorem 6.1.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/divergence.hpp"
#include "core/message_analysis.hpp"
#include "testers/message_maps.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e11_divergence --ell=3 --delta=0.333\n";
    return 0;
  }
  const auto ell = cli.get_uint<unsigned>("ell", 3);
  const double delta = cli.get_double("delta", 1.0 / 3.0);
  bench::accept_quick(cli);
  cli.reject_unread();
  const CubeDomain dom(ell);
  const double n = static_cast<double>(dom.universe_size());

  bench::banner("E11  per-player divergence pipeline  [Thm 6.1 proof]",
                "expected: exact KL <= chi2 cap <= (2x) Lemma-4.2 cap at "
                "every (q, eps); implied k falls like 1/(q eps^2)^2");

  Table table({"q", "eps", "mu(G)", "E_z[KL] exact (bits)", "chi2 cap",
               "lemma4.2 cap x2", "implied min k"});
  bool chain_holds = true;
  for (unsigned q : {2u, 3u}) {  // q >= 2: the voter needs collisions
    if ((ell + 1) * q > 12) continue;
    const SampleTupleCodec codec(dom, q);
    const MessageAnalysis analysis(codec, 1, collision_vote_message(codec));
    const double mu_g = analysis.mu();
    if (mu_g <= 0.0 || mu_g >= 1.0) continue;  // degenerate voter at this q
    for (double eps : {0.1, 0.2, 0.4}) {
      // Exact expectation over all perturbation vectors.
      double kl_acc = 0.0, chi_acc = 0.0;
      const std::uint64_t num_z = for_each_z(dom, eps, [&](const NuZ& nu) {
        const double alpha = analysis.nu_z(nu);
        kl_acc += kl_bernoulli(alpha, mu_g);
        chi_acc += chi2_bernoulli_bound(alpha, mu_g);
      });
      const double kl = kl_acc / static_cast<double>(num_z);
      const double chi = chi_acc / static_cast<double>(num_z);
      const double lemma_cap = 2.0 * per_player_divergence_cap(n, q, eps);
      if (kl > chi + 1e-12 || chi > lemma_cap + 1e-12) chain_holds = false;
      const double implied_k =
          kl > 0.0 ? required_total_divergence(delta) / kl : 0.0;
      table.add_row({static_cast<std::int64_t>(q), eps, mu_g, kl, chi,
                     lemma_cap, implied_k});
    }
  }
  table.print(std::cout,
              "E11: exact KL vs chi-squared vs Lemma 4.2 caps (ell=" +
                  std::to_string(ell) + ")");
  table.write_csv(bench::output_dir() + "/e11_divergence.csv");
  std::cout << "inequality chain (11)-(12) holds at every point: "
            << (chain_holds ? "YES" : "NO") << "\n";
  return chain_holds ? 0 : 1;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
