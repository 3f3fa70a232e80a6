// Lower-bound explorer: every bound formula in the paper, evaluated for
// YOUR parameters. Useful for sizing a deployment before writing any code:
// "with this many nodes and this eps, how many samples does theory say
// each node must draw — under each decision rule?"
//
//   ./lowerbound_explorer --n=1000000 --k=256 --eps=0.1 [--r=1] [--t=4]
#include <cmath>
#include <iostream>

#include "core/divergence.hpp"
#include "core/predictions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "lowerbound_explorer --n=1000000 --k=256 --eps=0.1 "
                 "[--r=1] [--t=4]\n";
    return 0;
  }
  const double n = cli.get_double("n", 1e6);
  const double k = cli.get_double("k", 256);
  const double eps = cli.get_double("eps", 0.1);
  const auto r = cli.get_uint<unsigned>("r", 1);
  const double t = cli.get_double("t", 4);
  cli.reject_unread();

  std::cout << "universe n = " << n << ", players k = " << k
            << ", proximity eps = " << eps << ", message bits r = " << r
            << ", threshold T = " << t << "\n\n";

  Table table({"setting", "per-node samples q", "source"});
  table.add_row({std::string("centralized (one node draws all)"),
                 predict::centralized_q(n, eps), std::string("[16]")});
  table.add_row({std::string("any decision rule (lower bound)"),
                 predict::thm11_any_rule_q(n, k, eps),
                 std::string("Theorem 1.1")});
  table.add_row({std::string("any rule, explicit constants"),
                 theorem61_q_lower_bound(n, k, eps),
                 std::string("inequality (13)")});
  table.add_row({std::string("threshold tester (upper bound)"),
                 predict::fmo_threshold_tester_q(n, k, eps),
                 std::string("[7]")});
  if (k >= 2) {
    table.add_row({std::string("AND rule (lower bound)"),
                   predict::thm12_and_rule_q(n, k, eps),
                   std::string("Theorem 1.2")});
    table.add_row({std::string("AND-rule tester (upper bound)"),
                   predict::fmo_and_tester_q(n, k, eps),
                   std::string("[7]")});
  }
  table.add_row({std::string("T-threshold rule (lower bound)"),
                 predict::thm13_threshold_q(n, k, eps, t),
                 std::string("Theorem 1.3")});
  table.add_row({std::string("r-bit messages (lower bound)"),
                 predict::thm64_multibit_q(n, k, eps, r),
                 std::string("Theorem 6.4")});
  table.print(std::cout, "sample-complexity predictions");

  std::cout << "\nother quantities:\n";
  std::cout << "  learning to constant l1 error with q-query nodes needs "
               "k >= n^2/q^2 (Theorem 1.4)\n";
  std::cout << "  single-sample testing (q=1, r-bit messages) needs k ~ "
            << predict::act_single_sample_k(n, eps, r) << " nodes [1]\n";
  std::cout << "  T-threshold window applies (k <= sqrt(n), small T): "
            << (predict::thm13_threshold_applies(n, k, eps, t, 10.0)
                    ? "yes"
                    : "no")
            << "\n";
  const double gain_any = predict::centralized_q(n, eps) /
                          predict::thm11_any_rule_q(n, k, eps);
  // The AND rule is a decision rule too, so BOTH Theorem 1.1 and
  // Theorem 1.2 cap its savings; the stronger (larger) lower bound binds.
  const double gain_and =
      k >= 2 ? predict::centralized_q(n, eps) /
                   std::max(predict::thm12_and_rule_q(n, k, eps),
                            predict::thm11_any_rule_q(n, k, eps))
             : 1.0;
  std::cout << "\nbottom line: distributing over " << k
            << " nodes can save a factor of " << format_double(gain_any)
            << " per node with a referee,\nbut at most "
            << format_double(gain_and)
            << " if you insist the network stays local (AND rule).\n";
  return 0;
}
