// The success rates of a tester over `trials` independent runs on a domain
// of n: the share of uniform runs it accepts and of far runs it rejects. Run
// t draws the uniform run from make_rng(seed, 1, t), a fresh Paninski
// distribution from make_rng(seed, 2, t) and the far run from
// make_rng(seed, 3, t). tests/test_distributed.cpp, tests/test_multibit.cpp
// and tests/test_centralized.cpp share it.
#pragma once

#include <cstdint>
#include <utility>

#include "dist/generators.hpp"
#include "sim/sample_source.hpp"
#include "util/confidence.hpp"
#include "util/rng.hpp"

namespace duti::test {

template <typename Tester>
std::pair<double, double> success_rates(const Tester& tester, std::uint64_t n,
                                        double eps, int trials,
                                        std::uint64_t seed) {
  SuccessCounter uniform_ok, far_ok;
  const UniformSource uniform(n);
  for (int t = 0; t < trials; ++t) {
    Rng rng = make_rng(seed, 1, t);
    uniform_ok.record(tester.run(uniform, rng));
    Rng far_rng = make_rng(seed, 2, t);
    const DistributionSource far(gen::paninski(n, eps, far_rng));
    Rng run_rng = make_rng(seed, 3, t);
    far_ok.record(!tester.run(far, run_rng));
  }
  return {uniform_ok.rate(), far_ok.rate()};
}

}  // namespace duti::test
