// Declarative SweepPoint builders for the q*-sweep benches (e1, e2, e3,
// e8, e9). Each builder reproduces the EXACT per-point seed derivations of
// the pre-engine serial loops — probe seed, calibration stream, and search
// range — so the engine's minima match the historical tables bit-for-bit,
// warm or cold. micro_sweep reuses the same builders to measure the
// engine against its cold serial baseline on the real sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/sweep.hpp"
#include "stats/workloads.hpp"
#include "testers/centralized.hpp"
#include "testers/distributed.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/multibit.hpp"

namespace duti::bench {

/// E1: calibrated threshold tester, sweep axis k. Seeds per point:
/// seed_k = derive_seed(seed, k); probe seed derive_seed(seed_k, q);
/// calibration stream make_rng(seed_k, q, 0xCA11B).
inline std::vector<SweepPoint> e1_points(std::uint64_t n, double eps,
                                         const std::vector<std::int64_t>& ks,
                                         std::size_t trials,
                                         std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto k : ks) {
    const std::uint64_t seed_k =
        derive_seed(seed, static_cast<std::uint64_t>(k));
    SweepPoint p;
    p.label = "k=" + std::to_string(k);
    p.axis = static_cast<double>(k);
    p.search.lo = 2;
    p.search.hi = 1ULL << 16;
    p.search.trials = trials;
    p.search.seed = seed_k;
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, k, eps, seed_k](std::uint64_t q) -> TesterRun {
      Rng calib_rng = make_rng(seed_k, q, 0xCA11B);
      auto tester = std::make_shared<DistributedThresholdTester>(
          DistributedTesterConfig{n, static_cast<unsigned>(k),
                                  static_cast<unsigned>(q), eps},
          calib_rng);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "dist-threshold:k=" + std::to_string(k) +
                          ":seed=" + std::to_string(seed_k);
    points.push_back(std::move(p));
  }
  return points;
}

/// E2, AND-rule half: uncalibrated AND tester, sweep axis k. Per point the
/// serial loop used seed_k = derive_seed(seed, k) and probe seed
/// derive_seed(seed_k, q, 1).
inline std::vector<SweepPoint> e2_and_points(
    std::uint64_t n, double eps, const std::vector<std::int64_t>& ks,
    std::size_t trials, std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto k : ks) {
    const std::uint64_t seed_k =
        derive_seed(seed, static_cast<std::uint64_t>(k));
    SweepPoint p;
    p.label = "and:k=" + std::to_string(k);
    p.axis = static_cast<double>(k);
    p.search.lo = 2;
    p.search.hi = 1ULL << 16;
    p.search.trials = trials;
    p.search.seed = seed_k;
    p.seed_for = [seed_k](std::uint64_t q) { return derive_seed(seed_k, q, 1); };
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, k, eps](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<DistributedAndTester>(
          DistributedTesterConfig{n, static_cast<unsigned>(k),
                                  static_cast<unsigned>(q), eps});
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "dist-and:k=" + std::to_string(k);
    points.push_back(std::move(p));
  }
  return points;
}

/// E2, threshold half: per point the serial loop used
/// seed_thr = derive_seed(derive_seed(seed, k), 7), probe seed
/// derive_seed(seed_thr, q, 1), and a calibration stream seeded DIRECTLY
/// with derive_seed(seed_thr, q) (not the 0xCA11B label e1 uses).
inline std::vector<SweepPoint> e2_threshold_points(
    std::uint64_t n, double eps, const std::vector<std::int64_t>& ks,
    std::size_t trials, std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto k : ks) {
    const std::uint64_t seed_thr =
        derive_seed(derive_seed(seed, static_cast<std::uint64_t>(k)), 7);
    SweepPoint p;
    p.label = "thr:k=" + std::to_string(k);
    p.axis = static_cast<double>(k);
    p.search.lo = 2;
    p.search.hi = 1ULL << 16;
    p.search.trials = trials;
    p.search.seed = seed_thr;
    p.seed_for = [seed_thr](std::uint64_t q) {
      return derive_seed(seed_thr, q, 1);
    };
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, k, eps, seed_thr](std::uint64_t q) -> TesterRun {
      Rng calib_rng(derive_seed(seed_thr, q));
      auto tester = std::make_shared<DistributedThresholdTester>(
          DistributedTesterConfig{n, static_cast<unsigned>(k),
                                  static_cast<unsigned>(q), eps},
          calib_rng);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "dist-threshold-e2:k=" + std::to_string(k) +
                          ":seed=" + std::to_string(seed_thr);
    points.push_back(std::move(p));
  }
  return points;
}

/// E3: forced-threshold tester, sweep axis T.
inline std::vector<SweepPoint> e3_points(std::uint64_t n, unsigned k,
                                         double eps,
                                         const std::vector<std::int64_t>& ts,
                                         std::size_t trials,
                                         std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto t_forced : ts) {
    const std::uint64_t seed_t =
        derive_seed(seed, static_cast<std::uint64_t>(t_forced));
    SweepPoint p;
    p.label = "T=" + std::to_string(t_forced);
    p.axis = static_cast<double>(t_forced);
    p.search.lo = 2;
    p.search.hi = 1ULL << 16;
    p.search.trials = trials;
    p.search.seed = seed_t;
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, k, eps, t_forced](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<FixedThresholdTester>(
          FixedThresholdTester::Config{
              n, k, static_cast<unsigned>(q), eps,
              static_cast<std::uint64_t>(t_forced)});
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "fixed-threshold:k=" + std::to_string(k) +
                          ":T=" + std::to_string(t_forced);
    points.push_back(std::move(p));
  }
  return points;
}

/// E8a: one centralized tester across n at fixed eps. The axis is n, so
/// every point gets its own workload pair. `seed` here is the per-point
/// seed the serial loop derived (seed_n, or derive_seed(seed_n, 1|2) for
/// the chi-squared / coincidence columns).
template <typename Tester>
std::vector<SweepPoint> e8_n_points(const std::string& tester_id,
                                    const std::vector<std::int64_t>& ns,
                                    double eps, std::size_t trials,
                                    std::uint64_t seed, SamplingKernel kernel,
                                    std::uint64_t seed_salt = 0) {
  std::vector<SweepPoint> points;
  for (const auto n : ns) {
    const auto nd = static_cast<std::uint64_t>(n);
    std::uint64_t seed_n = derive_seed(seed, static_cast<std::uint64_t>(n));
    if (seed_salt != 0) seed_n = derive_seed(seed_n, seed_salt);
    SweepPoint p;
    p.label = tester_id + ":n=" + std::to_string(n);
    p.axis = static_cast<double>(n);
    p.search.lo = 2;
    p.search.hi = 1ULL << 18;
    p.search.trials = trials;
    p.search.seed = seed_n;
    p.uniform = workloads::uniform_factory(nd);
    p.far = workloads::paninski_far_factory(nd, eps);
    p.make_tester = [nd, eps, kernel](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<Tester>(nd, eps,
                                             static_cast<unsigned>(q), kernel);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester =
        tester_id + (kernel == SamplingKernel::kCounts ? ":counts" : "");
    points.push_back(std::move(p));
  }
  return points;
}

/// E8b: collision tester across eps at fixed n; per point the serial loop
/// used seed derive_seed(seed, uint64(eps * 1000)).
inline std::vector<SweepPoint> e8_eps_points(std::uint64_t n,
                                             const std::vector<double>& epss,
                                             std::size_t trials,
                                             std::uint64_t seed,
                                             SamplingKernel kernel) {
  std::vector<SweepPoint> points;
  for (const double eps : epss) {
    const std::uint64_t seed_e =
        derive_seed(seed, static_cast<std::uint64_t>(eps * 1000));
    SweepPoint p;
    p.label = "collision:eps=" + std::to_string(eps);
    p.axis = eps;
    p.search.lo = 2;
    p.search.hi = 1ULL << 18;
    p.search.trials = trials;
    p.search.seed = seed_e;
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, eps, kernel](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<CentralizedCollisionTester>(
          n, eps, static_cast<unsigned>(q), kernel);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester =
        std::string("collision") +
        (kernel == SamplingKernel::kCounts ? ":counts" : "");
    points.push_back(std::move(p));
  }
  return points;
}

/// E9: multibit sum tester, sweep axis r (message bits).
inline std::vector<SweepPoint> e9_points(std::uint64_t n, unsigned k,
                                         double eps,
                                         const std::vector<std::int64_t>& rs,
                                         std::size_t trials,
                                         std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto r : rs) {
    const std::uint64_t seed_r =
        derive_seed(seed, static_cast<std::uint64_t>(r));
    SweepPoint p;
    p.label = "r=" + std::to_string(r);
    p.axis = static_cast<double>(r);
    p.search.lo = 2;
    p.search.hi = 1ULL << 16;
    p.search.trials = trials;
    p.search.seed = seed_r;
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, k, eps, r, seed_r](std::uint64_t q) -> TesterRun {
      Rng calib_rng = make_rng(seed_r, q, 0xCA11B);
      auto tester = std::make_shared<MultibitSumTester>(
          MultibitSumTester::Config{n, k, static_cast<unsigned>(q), eps,
                                    static_cast<unsigned>(r)},
          calib_rng);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "multibit-sum:k=" + std::to_string(k) +
                          ":r=" + std::to_string(r);
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace duti::bench
