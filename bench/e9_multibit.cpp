// E9 — Theorem 6.4 (r-bit messages).
//
// Paper claim: with r-bit messages the sample bound becomes
// q = Omega(min(sqrt(n/(2^r k)), n/(2^r k))/eps^2) — r bits act like 2^r
// times more players, so the lower bound decays by 2^{-Theta(r)}.
//
// The bench measures the minimal q of the multibit sum tester across r at
// fixed (n, k, eps). The measured curve should fall with r and then
// saturate once the saturating counter stops losing information (beyond
// that point extra bits are free but useless — the upper-bound side
// flattens while the lower bound keeps dropping).
#include <iostream>

#include "bench_common.hpp"
#include "core/message_analysis.hpp"
#include "core/predictions.hpp"
#include "sweep_specs.hpp"
#include "testers/message_maps.hpp"

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e9_multibit --n=4096 --k=32 --eps=0.5 --rs=1,2,4,8 "
                 "--trials=150\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = cli.get_uint<std::uint64_t>("n", 4096);
  const auto k = cli.get_uint<unsigned>("k", 32);
  const double eps = cli.get_double("eps", 0.5);
  // --quick shrinks the default axis only; an explicit --rs wins.
  const auto rs = cli.get_uint_list<std::int64_t>(
      "rs", flags.quick ? std::vector<std::int64_t>{1, 8}
                        : std::vector<std::int64_t>{1, 2, 4, 8});
  cli.reject_unread();

  bench::banner("E9  q* vs message width r  [Thm 6.4]",
                "expected: q* falls as r grows, then saturates at the "
                "1-round statistical optimum; thm6.4 lower bound below "
                "every point");

  const auto points =
      bench::e9_points(n, k, eps, rs, flags.trials, flags.seed);
  const SweepResult sweep = run_sweep(points);
  bench::print_sweep_summary("e9", sweep);
  const std::size_t failed = bench::failed_searches(sweep);

  Table table({"r (bits)", "q* (measured)", "thm6.4 lower-bound shape",
               "1-bit baseline ratio"});
  std::vector<double> xs, measured;
  double q1 = 0.0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (!sweep.points[i].found) continue;
    const auto r = rs[i];
    const std::uint64_t q_star = sweep.points[i].minimum;
    if (q1 == 0.0) q1 = static_cast<double>(q_star);
    table.add_row({r, static_cast<std::int64_t>(q_star),
                   predict::thm64_multibit_q(static_cast<double>(n),
                                             static_cast<double>(k), eps,
                                             static_cast<unsigned>(r)),
                   static_cast<double>(q_star) / q1});
    xs.push_back(static_cast<double>(r));
    measured.push_back(static_cast<double>(q_star));
  }
  table.print(std::cout, "E9: more message bits, fewer samples");
  table.write_csv(bench::output_dir() + "/e9_multibit.csv");

  // Information side, computed exactly on a small cube universe: the
  // per-player divergence of the r-bit collision message grows with r
  // toward the full-tuple (data-processing) ceiling — the mechanism behind
  // Theorem 6.4's 2^{-Theta(r)} decay of the required q.
  {
    const SampleTupleCodec codec(CubeDomain(3), 3);
    const double eps_info = 0.4;
    const std::vector<unsigned> widths{1, 2, 3, 4, 6, 8};
    // One pass over z for every message. The first is the identity at
    // r = (ell+1)q bits: it sends the whole tuple, so its divergence is
    // the data-processing ceiling no message exceeds.
    std::vector<MessageAnalysis> analyses;
    analyses.emplace_back(codec, codec.total_bits(), [](std::uint64_t t) {
      return static_cast<std::uint32_t>(t);
    });
    for (unsigned r : widths) {
      analyses.emplace_back(codec, r, collision_count_message(codec, r));
      // Random r-bit hash of the whole tuple — the [1]-style message whose
      // information grows like 2^r until it captures the full tuple.
      const std::uint64_t key = derive_seed(0x9E37, r);
      analyses.emplace_back(codec, r, [key, r](std::uint64_t t) {
        return static_cast<std::uint32_t>(SplitMix64(t ^ key).next() &
                                          ((1ULL << r) - 1));
      });
    }
    const std::vector<double> kl =
        expected_divergences_exact(analyses, eps_info);
    const double ceiling = kl[0];
    Table info({"r (bits)", "KL collision msg", "KL random-hash msg",
                "hash msg / ceiling"});
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const double d_coll = kl[1 + 2 * i];
      const double d_hash = kl[2 + 2 * i];
      info.add_row({static_cast<std::int64_t>(widths[i]), d_coll, d_hash,
                    d_hash / ceiling});
    }
    info.print(std::cout,
               "E9b: exact per-player information vs message width "
               "(ell=3, q=3, eps=0.4; full-tuple ceiling = " +
                   format_double(ceiling) + " bits)");
    info.write_csv(bench::output_dir() + "/e9_multibit_info.csv");
    std::cout
        << "The collision message saturates once its few distinct values "
           "fit (q=3 has <= 4 count levels);\nthe random-hash message's "
           "information grows like 2^r toward the data-processing ceiling "
           "—\nthe mechanism behind Theorem 6.4's 2^{-Theta(r)} decay.\n";
  }
  const char* const kVerdict = "wider messages never cost samples";
  if (failed > 0) return bench::not_judged({kVerdict}, failed);
  if (measured.size() >= 2) {
    const bool improves = measured.back() <= measured.front();
    std::cout << kVerdict << ": " << (improves ? "YES" : "NO") << "\n";
    return improves ? 0 : 1;
  }
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
