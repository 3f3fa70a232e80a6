#include "testers/multibit.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

std::uint32_t MultibitSumTester::encode_count(std::uint64_t pairs, unsigned r,
                                              std::uint64_t offset) {
  const std::uint64_t cap = (1ULL << r) - 1;
  const std::uint64_t shifted = pairs > offset ? pairs - offset : 0;
  return static_cast<std::uint32_t>(std::min(shifted, cap));
}

MultibitSumTester::MultibitSumTester(Config cfg, Rng& calib_rng,
                                     std::size_t calib_trials)
    : cfg_(cfg) {
  require(cfg_.n >= 2, "MultibitSumTester: n must be >= 2");
  require(cfg_.k >= 1, "MultibitSumTester: k must be >= 1");
  require(cfg_.q >= 2, "MultibitSumTester: q must be >= 2");
  require(cfg_.eps > 0.0 && cfg_.eps <= 1.0, "MultibitSumTester: eps in (0,1]");
  require(cfg_.r >= 1 && cfg_.r <= 24, "MultibitSumTester: r in [1,24]");

  // Center the saturating window at the uniform collision mean so the
  // encoding never pins on both hypotheses at once (see header comment).
  const double lambda = expected_collision_pairs_uniform(
      static_cast<double>(cfg_.n), cfg_.q);
  const std::uint64_t half_window = 1ULL << (cfg_.r - 1);
  const auto lambda_ceil =
      static_cast<std::uint64_t>(std::ceil(lambda));
  offset_ = lambda_ceil > half_window ? lambda_ceil - half_window : 0;

  // Mean and variance of the encoded count under uniform. The encoding
  // reads (n, q, r), so r is the only input the statistic must name.
  const unsigned r = cfg_.r;
  const std::uint64_t offset = offset_;
  const std::vector<double> moments = calibrate_on_uniform(
      "encoded|r=" + std::to_string(r), cfg_.n, std::span(&cfg_.q, 1),
      calibration_trials(calib_trials, cfg_.k), calib_rng,
      [r, offset](unsigned /*q*/, std::span<const std::uint64_t> pairs) {
        std::vector<double> encoded;
        encoded.reserve(pairs.size());
        for (const std::uint64_t p : pairs) {
          encoded.push_back(static_cast<double>(encode_count(p, r, offset)));
        }
        return std::vector<double>{
            mean(encoded),
            encoded.size() >= 2 ? sample_variance(encoded) : 0.0};
      });
  const double m_u = moments[0];
  const double v_u = moments[1];
  const double kd = static_cast<double>(cfg_.k);
  // Accept iff the sum of encoded counts is below mean + 1 sd (same
  // one-sided calibration as the 1-bit threshold tester).
  sum_t_ = kd * m_u + std::sqrt(std::max(1e-12, kd * v_u));

  exec_.emplace(
      cfg_.k, cfg_.q,
      [r, offset](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
        return Message{encode_count(pairs, r, offset), r};
      },
      r);
}

bool MultibitSumTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "MultibitSumTester: domain size mismatch");
  // A j-ascending fold over the message integers: the referee total is
  // the same double at any thread count.
  const auto& messages = exec_->collect(source, rng);
  double total = 0.0;
  for (const auto& m : messages) total += static_cast<double>(m.bits);
  return total < sum_t_;
}

}  // namespace duti
