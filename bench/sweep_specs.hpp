// SweepPoint builders for every bench that searches a minimum: the
// declarative q*-sweeps of e1, e2, e3, e8, e9 and e10, the reference q*
// search, and the raw-probe points of e4 (a learning probe) and e13
// (RefereeOutcome probes with abort attribution), whose probes the
// declarative path cannot describe. Each builder reproduces the EXACT
// per-point seed derivations of the pre-engine serial loops — probe seed,
// calibration stream, and search range — so the engine's minima match the
// historical tables bit-for-bit, warm or cold. test_sweep and
// test_protocol_batch pin them through the same builders.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/generators.hpp"
#include "stats/sweep.hpp"
#include "stats/workloads.hpp"
#include "testers/asymmetric.hpp"
#include "testers/calibration.hpp"
#include "testers/centralized.hpp"
#include "testers/distributed.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/learner.hpp"
#include "testers/multibit.hpp"
#include "testers/robust_rules.hpp"

namespace duti {

/// A one-value tag that the e8 builders take and ignore: every centralized
/// tester draws per sample. It stays only because perfbench's sweeps
/// workload still passes it.
enum class SamplingKernel : std::uint8_t { kPerSample };

}  // namespace duti

namespace duti::bench {

/// make_tester of the calibrated threshold tester at (n, k, eps) whose
/// calibration stream at q is make_rng(seed, q, 0xCA11B).
inline std::function<TesterRun(std::uint64_t)> threshold_tester(
    std::uint64_t n, unsigned k, double eps, std::uint64_t seed) {
  return [n, k, eps, seed](std::uint64_t q) -> TesterRun {
    Rng calib_rng = make_rng(seed, q, 0xCA11B);
    auto tester = std::make_shared<DistributedThresholdTester>(
        DistributedTesterConfig{n, k, static_cast<unsigned>(q), eps},
        calib_rng);
    return [tester](const SampleSource& src, Rng& rng) {
      return tester->run(src, rng);
    };
  };
}

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
    p.make_tester =
        threshold_tester(n, static_cast<unsigned>(k), eps, seed_k);
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "dist-threshold:k=" + std::to_string(k) +
                          ":seed=" + std::to_string(seed_k);
    points.push_back(std::move(p));
  }
  return points;
}

/// The reference q* search: the calibrated threshold tester at n = 4096,
/// k = 64, eps = 0.25, 150 trials per probe, q in [2, 2^12]. The search
/// seed is `seed` itself, where e1_points derives one per k: calibration
/// stream make_rng(seed, q, 0xCA11B), probe seed derive_seed(seed, q).
inline constexpr std::uint64_t kReferenceN = 4096;
inline constexpr unsigned kReferenceK = 64;
inline constexpr double kReferenceEps = 0.25;

inline SweepPoint reference_point(std::uint64_t seed) {
  SweepPoint p;
  p.label = "reference";
  p.axis = static_cast<double>(kReferenceK);
  p.search.lo = 2;
  p.search.hi = 1ULL << 12;
  p.search.trials = 150;
  p.search.seed = seed;
  p.uniform = workloads::uniform_factory(kReferenceN);
  p.far = workloads::paninski_far_factory(kReferenceN, kReferenceEps);
  p.make_tester =
      threshold_tester(kReferenceN, kReferenceK, kReferenceEps, seed);
  return p;
}

/// A declarative point's full-budget probe on `pool`: what run_sweep's cold
/// search consults at each value (the point's per-value seed, its
/// search.trials, no early stop).
inline ProbeFn full_budget_probe(SweepPoint point, ThreadPool& pool) {
  return [point = std::move(point), &pool](std::uint64_t value) {
    const std::uint64_t seed = point.seed_for
                                   ? point.seed_for(value)
                                   : derive_seed(point.search.seed, value);
    return probe_success(point.make_tester(value), point.uniform, point.far,
                         point.search.trials, seed, pool);
  };
}

/// Forgets every memoized referee calibration, so each search after it
/// starts cold.
inline void clear_calibration_memo() { CalibMemo::global().clear(); }

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
          DistributedTesterConfig{n, k, static_cast<unsigned>(q), eps},
          static_cast<std::uint64_t>(t_forced));
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
                                    std::uint64_t seed,
                                    SamplingKernel /*unused*/ =
                                        SamplingKernel::kPerSample,
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
    p.make_tester = [nd, eps](std::uint64_t q) -> TesterRun {
      auto tester =
          std::make_shared<Tester>(nd, eps, static_cast<unsigned>(q));
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = tester_id;
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
                                             SamplingKernel /*unused*/ =
                                                 SamplingKernel::kPerSample) {
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
    p.make_tester = [n, eps](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<CentralizedCollisionTester>(
          n, eps, static_cast<unsigned>(q));
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "collision";
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
          DistributedTesterConfig{n, k, static_cast<unsigned>(q), eps},
          static_cast<unsigned>(r), calib_rng);
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

/// One E10 rate vector: player i samples at rate rates[i].
struct RateShape {
  std::string name;
  std::vector<double> rates;
};

/// The E10 shapes, in table order. Three have 16 players, so they share
/// probe seeds and differ only in their cache identity.
inline std::vector<RateShape> e10_shapes() {
  std::vector<double> one_fast(16, 1.0);
  one_fast[0] = 8.0;
  std::vector<double> half_fast(16, 1.0);
  for (std::size_t i = 0; i < 8; ++i) half_fast[i] = 3.0;
  return {{"uniform x16", std::vector<double>(16, 1.0)},
          {"one fast node", one_fast},
          {"half fast", half_fast},
          {"4 nodes at rate 2", std::vector<double>(4, 2.0)}};
}

/// ||T||_2, the quantity the Section 6.2 prediction is a power law in.
inline double l2_norm(const std::vector<double>& rates) {
  double acc = 0.0;
  for (double t : rates) acc += t * t;
  return std::sqrt(acc);
}

/// E10: asymmetric-rate tester, one point per rate shape, axis ||T||_2,
/// searching the time budget tau. Per point the serial loop used probe seed
/// derive_seed(seed, tau, rates.size()) and calibration stream
/// make_rng(seed, tau, 0xCA11B) with the tester's default 600 trials per
/// player.
inline std::vector<SweepPoint> e10_points(std::uint64_t n, double eps,
                                          const std::vector<RateShape>& shapes,
                                          std::size_t trials,
                                          std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const RateShape& shape : shapes) {
    const std::vector<double> rates = shape.rates;
    SweepPoint p;
    p.label = shape.name;
    p.axis = l2_norm(rates);
    p.search.lo = 2;
    p.search.hi = 1ULL << 14;
    p.search.trials = trials;
    p.search.seed = seed;
    p.seed_for = [seed, players = rates.size()](std::uint64_t tau) {
      return derive_seed(seed, tau, players);
    };
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, eps);
    p.make_tester = [n, rates, seed](std::uint64_t tau) -> TesterRun {
      Rng calib_rng = make_rng(seed, tau, 0xCA11B);
      auto tester = std::make_shared<AsymmetricRateTester>(
          n, rates, static_cast<double>(tau), calib_rng);
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload =
        "paninski:n=" + std::to_string(n) + ":eps=" + std::to_string(eps);
    p.cache_base.tester = "asymmetric:rates=";
    for (std::size_t i = 0; i < rates.size(); ++i) {
      p.cache_base.tester += (i > 0 ? "," : "") + std::to_string(rates[i]);
    }
    p.cache_base.tester += ":seed=" + std::to_string(seed);
    points.push_back(std::move(p));
  }
  return points;
}

/// E4's two-sided learning probe. Side 1 succeeds when the presence-bit
/// learner's l1 error on the uniform truth is at most `delta`, side 2 when
/// it is on a fresh random perturbation of it. Trials run on `pool`, one per
/// claim, each from streams derived from (seed, side, t) alone. Successes
/// are counted per worker slot and added up after the loop: integer sums,
/// the same in any order, so the result does not depend on the pool.
inline ProbeResult learning_probe(std::uint64_t n, std::uint64_t k, unsigned q,
                                  double delta, std::size_t trials,
                                  std::uint64_t seed, ThreadPool& pool) {
  const PresenceBitLearner learner(n, k, q);
  // One cache line per slot: workers never write to a shared line.
  struct alignas(64) SlotTally {
    std::uint64_t uniform = 0;
    std::uint64_t structured = 0;
  };
  std::vector<SlotTally> slots(pool.size());
  pool.parallel_for(
      trials, 1, [&](std::size_t begin, std::size_t end, unsigned worker) {
        SlotTally& slot = slots[worker];
        for (std::size_t t = begin; t < end; ++t) {
          {
            const auto truth = DiscreteDistribution::uniform(n);
            Rng rng = make_rng(seed, 1, t);
            slot.uniform +=
                learner.learn_l1_error(truth, rng) <= delta ? 1U : 0U;
          }
          {
            Rng gen_rng = make_rng(seed, 2, t);
            const auto truth = gen::random_perturbation(n, 1.0, gen_rng);
            Rng rng = make_rng(seed, 3, t);
            slot.structured +=
                learner.learn_l1_error(truth, rng) <= delta ? 1U : 0U;
          }
        }
      });
  std::uint64_t uniform_successes = 0;
  std::uint64_t structured_successes = 0;
  for (const SlotTally& slot : slots) {
    uniform_successes += slot.uniform;
    structured_successes += slot.structured;
  }
  return probe_result_from_tallies(uniform_successes, structured_successes,
                                   trials, trials, ProbeStop::kExhausted);
}

/// E4: presence-bit learner, one raw point per q, searching k in units of n
/// (the learner needs k >= n). Per point the serial loop used search seed
/// derive_seed(seed, q) and probe seed derive_seed(seed, q, k_units). Each
/// probe's trials run on `pool`, which must outlive the points; pass the
/// pool that runs the sweep, so a point's trials share its workers.
inline std::vector<SweepPoint> e4_points(ThreadPool& pool, std::uint64_t n,
                                         double delta,
                                         const std::vector<std::int64_t>& qs,
                                         std::size_t trials,
                                         std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (const auto q : qs) {
    const auto qu = static_cast<std::uint64_t>(q);
    SweepPoint p;
    p.label = "q=" + std::to_string(q);
    p.axis = static_cast<double>(q);
    p.search.lo = 1;
    p.search.hi = 1ULL << 14;
    p.search.trials = trials;
    p.search.seed = derive_seed(seed, qu);
    p.probe = [&pool, n, qu, delta, trials, seed](std::uint64_t k_units) {
      return learning_probe(n, k_units * n, static_cast<unsigned>(qu), delta,
                            trials, derive_seed(seed, qu, k_units), pool);
    };
    points.push_back(std::move(p));
  }
  return points;
}

/// E13's search setup, shared by the crash and Byzantine families.
struct FaultSweepSetup {
  std::uint64_t n;
  unsigned k;
  double eps;
  std::size_t trials;
  std::uint64_t seed;
  std::uint64_t cap;  // give-up cap for the q search
};

using RefereeRule = RobustThresholdTester::Rule;

/// E13's fault grids, in table order: fault fraction outer, rule inner.
inline constexpr std::array<double, 5> kCrashFractions{0.0, 0.05, 0.1, 0.2,
                                                       0.3};
inline constexpr std::array<RefereeRule, 2> kCrashRules{RefereeRule::kNaive,
                                                        RefereeRule::kQuorum};
inline constexpr std::array<double, 4> kByzantineFractions{0.0, 0.05, 0.1,
                                                           0.15};
inline constexpr std::array<RefereeRule, 3> kByzantineRules{
    RefereeRule::kNaive, RefereeRule::kMedianOfGroups, RefereeRule::kTrimmed};

inline const char* rule_name(RefereeRule rule) {
  switch (rule) {
    case RefereeRule::kNaive: return "naive";
    case RefereeRule::kQuorum: return "quorum";
    case RefereeRule::kMedianOfGroups: return "median";
    case RefereeRule::kTrimmed: return "trimmed";
  }
  return "?";
}

/// E13: the threshold tester of [7] under one fault plan and referee rule,
/// as a raw point: its RefereeOutcome probe attributes aborts, which the
/// declarative path cannot carry. Per q the serial loop used calibration
/// stream Rng(derive_seed(seed, 0xCA11B, q)) and probe seed `seed` itself,
/// the same at every q.
inline SweepPoint e13_point(const FaultSweepSetup& s, const std::string& family,
                            double fraction, const FaultPlan& plan,
                            RefereeRule rule) {
  SweepPoint p;
  p.label = family + "=" + std::to_string(fraction) + ":" + rule_name(rule);
  p.axis = fraction;
  p.search.lo = 2;
  p.search.hi = s.cap;
  p.search.trials = s.trials;
  p.search.seed = s.seed;
  p.probe = [s, plan, rule, uniform = workloads::uniform_factory(s.n),
             far = workloads::paninski_far_factory(s.n, s.eps)](
                std::uint64_t q) {
    Rng calib(derive_seed(s.seed, 0xCA11B, q));
    const RobustThresholdTester tester(
        {s.n, s.k, static_cast<unsigned>(q), s.eps}, plan, rule, calib);
    const TesterRunEx run = [&tester](const SampleSource& src, Rng& r) {
      return tester.outcome(src, r);
    };
    return probe_success(run, uniform, far, s.trials, s.seed);
  };
  return p;
}

/// E13 crash family: each crash fraction under the naive and quorum rules.
inline std::vector<SweepPoint> e13_crash_points(const FaultSweepSetup& s) {
  std::vector<SweepPoint> points;
  for (const double c : kCrashFractions) {
    FaultPlan plan;
    plan.crash_fraction = c;
    for (const RefereeRule rule : kCrashRules) {
      points.push_back(e13_point(s, "crash", c, plan, rule));
    }
  }
  return points;
}

/// E13 Byzantine family: stuck-at-one bits at each fraction under the
/// naive, median-of-groups and trimmed-mean rules.
inline std::vector<SweepPoint> e13_byzantine_points(const FaultSweepSetup& s) {
  std::vector<SweepPoint> points;
  for (const double b : kByzantineFractions) {
    FaultPlan plan;
    plan.byzantine_fraction = b;
    for (const RefereeRule rule : kByzantineRules) {
      points.push_back(e13_point(s, "byzantine", b, plan, rule));
    }
  }
  return points;
}

}  // namespace duti::bench
