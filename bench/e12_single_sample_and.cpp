// E12 — the remark after Theorem 1.2: with ONE sample per node, the AND
// decision rule cannot test uniformity AT ALL, no matter how many nodes.
//
// Intuition: a single sample gives a player no collision information; any
// local rule is a (shared-randomness) subset indicator, and under the
// Paninski mixture the probability a sample lands in any fixed subset is
// eps-insensitive to second order. Under the AND rule the per-player
// rejection budget 1/(3k) then erases the per-player signal faster than k
// players can amplify it.
//
// The bench plays several natural single-sample local rules at increasing
// k and measures the tester advantage (uniform-accept + far-reject - 1),
// which should hover near zero everywhere; the same harness with q = 2
// collision voters (AND rule, generous samples) is shown as the contrast.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "stats/workloads.hpp"
#include "testers/distributed.hpp"
#include "util/confidence.hpp"
#include "util/error.hpp"

namespace {

using namespace duti;

/// Single-sample AND-rule protocol: each player rejects with probability
/// gamma = 2/(3k) when its sample lands in a shared random half-domain
/// subset (fresh subset per run; players share it).
double advantage_subset_rule(std::uint64_t n, unsigned k, double eps,
                             std::size_t trials, std::uint64_t seed) {
  SuccessCounter uniform_ok, far_ok;
  const double gamma = 2.0 / (3.0 * static_cast<double>(k));
  auto run_once = [&](const SampleSource& source, Rng& rng) {
    const std::uint64_t subset_key = rng();  // shared randomness
    for (unsigned j = 0; j < k; ++j) {
      Rng player_rng = make_rng(rng(), j);
      const std::uint64_t sample = source.sample(player_rng);
      const bool in_subset =
          (SplitMix64(subset_key ^ sample).next() & 1ULL) != 0;
      if (in_subset && player_rng.next_bernoulli(gamma)) {
        return false;  // AND rule: one alarm rejects
      }
    }
    return true;
  };
  const auto uniform_factory = workloads::uniform_factory(n);
  const auto far_factory = workloads::paninski_far_factory(n, eps);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng src_rng = make_rng(seed, 1, t);
    const auto u = uniform_factory(src_rng);
    Rng run_rng = make_rng(seed, 2, t);
    uniform_ok.record(run_once(*u, run_rng));
    Rng far_src_rng = make_rng(seed, 3, t);
    const auto f = far_factory(far_src_rng);
    Rng far_run_rng = make_rng(seed, 4, t);
    far_ok.record(!run_once(*f, far_run_rng));
  }
  return uniform_ok.rate() + far_ok.rate() - 1.0;
}

/// Contrast: q = 2 collision voters under the AND rule with generous n'
/// (small domain so 2 samples already collide sometimes).
double advantage_two_sample_and(std::uint64_t n, unsigned k, unsigned q,
                                double eps, std::size_t trials,
                                std::uint64_t seed) {
  const DistributedAndTester tester({n, k, q, eps});
  SuccessCounter uniform_ok, far_ok;
  const auto uniform_factory = workloads::uniform_factory(n);
  const auto far_factory = workloads::paninski_far_factory(n, eps);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng src_rng = make_rng(seed, 1, t);
    const auto u = uniform_factory(src_rng);
    Rng run_rng = make_rng(seed, 2, t);
    uniform_ok.record(tester.run(*u, run_rng));
    Rng far_src_rng = make_rng(seed, 3, t);
    const auto f = far_factory(far_src_rng);
    Rng far_run_rng = make_rng(seed, 4, t);
    far_ok.record(!tester.run(*f, far_run_rng));
  }
  return uniform_ok.rate() + far_ok.rate() - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e12_single_sample_and --n=256 --eps=1.0 --trials=400\n";
    return 0;
  }
  const auto n = cli.get_uint<std::uint64_t>("n", 256);
  const double eps = cli.get_double("eps", 1.0);
  const auto trials = cli.get_uint<std::size_t>("trials", 400);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  // An advantage over zero trials is undefined, not -1.
  require(trials >= 1, "e12_single_sample_and: --trials must be >= 1, got " +
                           std::to_string(trials));

  bench::banner("E12  q = 1 with the AND rule is impossible  [remark, Sec 6.3]",
                "expected: single-sample AND advantage ~ 0 at every k, even "
                "with eps = 1; two-sample collision voters separate easily");

  Table table({"k", "advantage (q=1, subset rule)",
               "advantage (q=2 collision voters, AND)"});
  double worst_single = 0.0;
  for (const std::int64_t k : {4LL, 16LL, 64LL, 256LL, 1024LL}) {
    const double adv1 = advantage_subset_rule(
        n, static_cast<unsigned>(k), eps, trials, derive_seed(seed, k, 1));
    // q=2 on a tiny domain (n'=16) where two samples collide often enough
    // for AND-rule testing to work with ~200 samples total.
    const double adv2 = advantage_two_sample_and(
        16, static_cast<unsigned>(k), 24, eps, trials,
        derive_seed(seed, k, 2));
    worst_single = std::max(worst_single, adv1);
    table.add_row({k, adv1, adv2});
  }
  table.print(std::cout, "E12: tester advantage vs k");
  table.write_csv(bench::output_dir() + "/e12_single_sample_and.csv");
  std::cout << "single-sample AND advantage stays below 0.15 at every k: "
            << (worst_single < 0.15 ? "YES" : "NO") << "\n";
  return worst_single < 0.15 ? 0 : 1;
}
