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
#include "fourier/families.hpp"
#include "testers/message_maps.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e11_divergence --ell=3 --delta=0.333\n";
    return 0;
  }
  const auto ell = static_cast<unsigned>(cli.get_int("ell", 3));
  const double delta = cli.get_double("delta", 1.0 / 3.0);
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
    const auto vote = collision_vote_message(codec);
    const auto g = BooleanCubeFunction::tabulate(
        codec.total_bits(), [&vote](std::uint64_t packed) {
          return static_cast<double>(vote(packed));
        });
    const MessageAnalysis analysis(codec, g);
    const double mu_g = analysis.mu();
    if (mu_g <= 0.0 || mu_g >= 1.0) continue;  // degenerate voter at this q
    for (double eps : {0.1, 0.2, 0.4}) {
      // Exact expectation over all perturbation vectors.
      const std::uint64_t num_z = 1ULL << dom.side_size();
      double kl_acc = 0.0, chi_acc = 0.0;
      for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
        PerturbationVector z(ell);
        for (std::uint64_t x = 0; x < dom.side_size(); ++x) {
          z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
        }
        const NuZ nu(dom, z, eps);
        const double alpha = analysis.nu_z_exact(nu);
        kl_acc += kl_bernoulli(alpha, mu_g);
        chi_acc += chi2_bernoulli_bound(alpha, mu_g);
      }
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
}
