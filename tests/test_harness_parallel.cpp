// Determinism regression for the parallel measurement engine: every probe
// and search result must be bit-for-bit identical to the serial path at any
// thread count (DESIGN.md §7).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "testers/collision.hpp"
#include "testers/fixed_threshold.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

void expect_probe_equal(const ProbeResult& a, const ProbeResult& b) {
  EXPECT_DOUBLE_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_DOUBLE_EQ(a.far_reject_rate, b.far_reject_rate);
  EXPECT_DOUBLE_EQ(a.uniform_ci.lo, b.uniform_ci.lo);
  EXPECT_DOUBLE_EQ(a.uniform_ci.hi, b.uniform_ci.hi);
  EXPECT_DOUBLE_EQ(a.far_ci.lo, b.far_ci.lo);
  EXPECT_DOUBLE_EQ(a.far_ci.hi, b.far_ci.hi);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.uniform_aborts_quorum, b.uniform_aborts_quorum);
  EXPECT_EQ(a.far_aborts_quorum, b.far_aborts_quorum);
}

// A representative tester: draws samples and thresholds collision pairs,
// consuming source and run randomness like the real protocol testers do.
TesterRun noisy_collision_tester() {
  return [](const SampleSource& source, Rng& rng) {
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 48, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 48);
    return static_cast<double>(
               collision_pairs(samples, source.domain_size())) <=
           expected + 1.0 + rng.next_double();
  };
}

// A TesterRunEx whose outcome depends on the trial's sample and run
// streams, with all three referee outcomes reachable, so every abort tally
// moves.
TesterRunEx aborting_tester() {
  return [](const SampleSource& source, Rng& rng) {
    const std::uint64_t s = source.sample(rng);
    const double u = rng.next_double();
    if (u < 0.25) return RefereeOutcome::kAbortQuorum;
    return (s + static_cast<std::uint64_t>(u * 1000.0)) % 3 == 0
               ? RefereeOutcome::kAccept
               : RefereeOutcome::kReject;
  };
}

TEST(ParallelProbe, BitIdenticalAcrossThreadCounts) {
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(tester, workloads::uniform_factory(256),
                    workloads::paninski_far_factory(256, 0.5), 400, 11, serial);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel =
        probe_success(tester, workloads::uniform_factory(256),
                      workloads::paninski_far_factory(256, 0.5), 400, 11, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbe, RealTesterBitIdentical) {
  const FixedThresholdTester tester({64, 8, 16, 0.5}, 2);
  const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
    return tester.run(src, rng);
  };
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(run, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 200, 3, serial);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel =
        probe_success(run, workloads::uniform_factory(64),
                      workloads::paninski_far_factory(64, 0.5), 200, 3, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbeEx, AbortAttributionBitIdentical) {
  const TesterRunEx tester = aborting_tester();
  ThreadPool serial(1);
  const ProbeResult reference = probe_success(
      tester, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 500, 17, serial);
  EXPECT_GT(reference.aborts(), 0u);  // the scenario actually aborts
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel = probe_success(
        tester, workloads::uniform_factory(128),
        workloads::paninski_far_factory(128, 0.5), 500, 17, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbe, SourceHoistDoesNotChangeResults) {
  // The same uniform factory, once with the trial-invariant promise (per-
  // worker cached source) and once wrapped as trial-varying (fresh heap
  // source per trial): identical results, because the factory ignores rng.
  const TesterRun tester = noisy_collision_tester();
  const SourceSpec invariant = workloads::uniform_factory(256);
  ASSERT_TRUE(invariant.trial_invariant());
  const SourceSpec varying(invariant.factory(), /*trial_invariant=*/false);
  ThreadPool pool(4);
  const ProbeResult a =
      probe_success(tester, invariant,
                    workloads::paninski_far_factory(256, 0.5), 300, 23, pool);
  const ProbeResult b =
      probe_success(tester, varying,
                    workloads::paninski_far_factory(256, 0.5), 300, 23, pool);
  expect_probe_equal(a, b);
}

TEST(ParallelProbe, InvariantSourceIsBuiltOncePerProbe) {
  // A trial-invariant side's source is built once per probe, before the
  // first batch, and every worker reads it: one build whatever the pool
  // and however many batches the probe runs.
  std::atomic<int> builds{0};
  const SourceSpec uniform = workloads::uniform_factory(256);
  const SourceSpec counting(
      [&builds, factory = uniform.factory()](Rng& rng) {
        builds.fetch_add(1, std::memory_order_relaxed);
        return factory(rng);
      },
      /*trial_invariant=*/true);
  const TesterRun tester = noisy_collision_tester();
  for (const unsigned threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (const ProbeFlavor flavor :
         {ProbeFlavor::kFull, ProbeFlavor::kAdaptive}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " adaptive="
                   << (flavor == ProbeFlavor::kAdaptive));
      builds.store(0);
      const ProbeResult r =
          probe_success(tester, counting,
                        workloads::paninski_far_factory(256, 0.5), 400, 29,
                        pool, flavor);
      if (flavor == ProbeFlavor::kAdaptive) {
        EXPECT_GT(r.trials, kAdaptiveBatch);  // more than one batch ran
      }
      EXPECT_EQ(builds.load(), 1);
    }
  }
}

// One trial per claim: which worker slot runs a trial depends on timing, so
// these cases pin that the merged slot tallies do not, on pools that divide
// none of the budgets, a budget below the pool size, and a probe run from
// inside a pool task.
TEST(OneTrialClaims, MatchSerialOnPoolsThatDivideNoBudget) {
  const TesterRun tester = noisy_collision_tester();
  const TesterRunEx ex = aborting_tester();
  ThreadPool serial(1);
  ThreadPool three(3);
  ThreadPool five(5);
  for (const std::size_t budget : {150u, 400u, 32u}) {
    for (const ProbeFlavor flavor :
         {ProbeFlavor::kFull, ProbeFlavor::kAdaptive}) {
      const auto run = [&](ThreadPool& pool) {
        return std::pair(
            probe_success(tester, workloads::uniform_factory(256),
                          workloads::paninski_far_factory(256, 0.5), budget,
                          31, pool, flavor),
            probe_success(ex, workloads::uniform_factory(256),
                          workloads::paninski_far_factory(256, 0.5), budget,
                          31, pool, flavor));
      };
      const auto [ref_bool, ref_ex] = run(serial);
      EXPECT_GT(ref_ex.aborts(), 0u);
      for (ThreadPool* pool : {&three, &five}) {
        SCOPED_TRACE(testing::Message()
                     << "budget=" << budget << " adaptive="
                     << (flavor == ProbeFlavor::kAdaptive)
                     << " threads=" << pool->size());
        const auto [got_bool, got_ex] = run(*pool);
        expect_probe_equal(ref_bool, got_bool);
        expect_probe_equal(ref_ex, got_ex);
      }
    }
  }
}

TEST(OneTrialClaims, BudgetBelowPoolSize) {
  // 2 trials on 8 threads: six slots run no trial and merge as zeros.
  const TesterRun tester = noisy_collision_tester();
  const TesterRunEx ex = aborting_tester();
  ThreadPool serial(1);
  ThreadPool wide(8);
  for (const ProbeFlavor flavor :
       {ProbeFlavor::kFull, ProbeFlavor::kAdaptive}) {
    SCOPED_TRACE(flavor == ProbeFlavor::kAdaptive);
    const auto run = [&](const auto& t, ThreadPool& pool) {
      return probe_success(t, workloads::uniform_factory(64),
                           workloads::paninski_far_factory(64, 0.5), 2, 37,
                           pool, flavor);
    };
    const ProbeResult ref_bool = run(tester, serial);
    EXPECT_EQ(ref_bool.trials, 2u);
    expect_probe_equal(ref_bool, run(tester, wide));
    expect_probe_equal(run(ex, serial), run(ex, wide));
  }
}

TEST(OneTrialClaims, NestedProbeMatchesSerial) {
  // A probe run from inside a pool task takes parallel_for's
  // share-and-help path: the calling worker is slot 0 and claims trials
  // while idle workers help. Each outer item runs its own probe, full or
  // adaptive, boolean or TesterRunEx; every result must equal the serial
  // pool's.
  const TesterRun tester = noisy_collision_tester();
  const TesterRunEx ex = aborting_tester();
  constexpr std::size_t kProbes = 8;
  const auto probe = [&](std::size_t i, ThreadPool& pool) {
    const ProbeFlavor flavor =
        i % 2 == 0 ? ProbeFlavor::kFull : ProbeFlavor::kAdaptive;
    const SourceSpec uniform = workloads::uniform_factory(256);
    const SourceSpec far = workloads::paninski_far_factory(256, 0.5);
    return i % 4 < 2
               ? probe_success(tester, uniform, far, 150, 41 + i, pool, flavor)
               : probe_success(ex, uniform, far, 150, 41 + i, pool, flavor);
  };
  ThreadPool serial(1);
  std::vector<ProbeResult> reference;
  for (std::size_t i = 0; i < kProbes; ++i) {
    reference.push_back(probe(i, serial));
  }
  for (const unsigned threads : {3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<ProbeResult> nested(kProbes);
    pool.parallel_for(kProbes, 1,
                      [&](std::size_t begin, std::size_t end, unsigned) {
                        for (std::size_t i = begin; i < end; ++i) {
                          nested[i] = probe(i, pool);
                        }
                      });
    for (std::size_t i = 0; i < kProbes; ++i) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " probe "
                                      << i);
      expect_probe_equal(reference[i], nested[i]);
    }
  }
}

TEST(ParallelSearch, MinimumAndAuditTrailDoNotDependOnPool) {
  // Statistically monotone synthetic probe: pure per value, noisy cutoff.
  // The search is serial, so its minimum and audit trail are the same on
  // any pool.
  const ProbeFn probe = [](std::uint64_t value) {
    ProbeResult r;
    r.trials = 1;
    const std::uint64_t cutoff = 93 + (derive_seed(5, value) % 9);
    r.uniform_accept_rate = value >= cutoff ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  ThreadPool serial(1);
  const auto reference = find_min_param(probe, cfg, serial);
  ASSERT_TRUE(reference.found);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto searched = find_min_param(probe, cfg, pool);
    SCOPED_TRACE(threads);
    ASSERT_TRUE(searched.found);
    EXPECT_EQ(searched.minimum, reference.minimum);
    // The audit trail replays the serial consultation sequence exactly.
    ASSERT_EQ(searched.probes.size(), reference.probes.size());
    for (std::size_t i = 0; i < reference.probes.size(); ++i) {
      EXPECT_EQ(searched.probes[i].first, reference.probes[i].first);
    }
  }
}

TEST(ParallelSearch, ProbeExceptionDoesNotDependOnPool) {
  // Probes can have validity limits (e.g. a tester config that only exists
  // for small q). A value past where the search stops is never consulted,
  // so its failure must stay invisible on any pool; a value the search does
  // consult throws the same exception on every pool. Regression: the
  // search once evaluated rungs beyond the passing point ahead of need, and
  // e3_threshold aborted at DUTI_THREADS=8 when one threw in
  // FixedThresholdTester's Poisson quantile.
  const ProbeFn probe = [](std::uint64_t value) {
    if (value > 128) throw InvalidArgument("probe: value out of range");
    ProbeResult r;
    r.trials = 1;
    r.uniform_accept_rate = value >= 100 ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;  // ladder reaches far past the validity limit
  ThreadPool serial(1);
  const auto reference = find_min_param(probe, cfg, serial);
  ASSERT_TRUE(reference.found);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto searched = find_min_param(probe, cfg, pool);
    ASSERT_TRUE(searched.found);
    EXPECT_EQ(searched.minimum, reference.minimum);
    ASSERT_EQ(searched.probes.size(), reference.probes.size());
  }
  // When the search itself consults a throwing value, every thread count
  // must surface the same exception.
  cfg.lo = 200;  // first consulted value is already out of range
  EXPECT_THROW(find_min_param(probe, cfg, serial), InvalidArgument);
  ThreadPool wide(8);
  EXPECT_THROW(find_min_param(probe, cfg, wide), InvalidArgument);
}

TEST(ParallelSearch, GivesUpIdentically) {
  const ProbeFn probe = [](std::uint64_t) { return ProbeResult{}; };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 64;
  ThreadPool pool(8);
  const auto result = find_min_param(probe, cfg, pool);
  EXPECT_FALSE(result.found);
}

TEST(AdaptiveProbe, BitIdenticalAcrossThreadCounts) {
  // The stopping point is decided from integer tallies at FIXED batch
  // boundaries, so the adaptive result — including where it stopped — is
  // bit-identical at any thread count (the DUTI_THREADS=1 vs 8 criterion).
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference = probe_success(
      tester, workloads::uniform_factory(256),
      workloads::paninski_far_factory(256, 0.5), 400, 11, serial,
      ProbeFlavor::kAdaptive);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel = probe_success(
        tester, workloads::uniform_factory(256),
        workloads::paninski_far_factory(256, 0.5), 400, 11, pool,
        ProbeFlavor::kAdaptive);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(AdaptiveProbe, AgreesWithFullBudgetOnSeedSweep) {
  // On instances away from the knife edge the certified verdict equals the
  // full-budget verdict seed for seed (the certificate soundness claim).
  const TesterRun easy = [](const SampleSource& source, Rng& rng) {
    // Strong separation: far sources (l1 > 0) almost always rejected.
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 64, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 64);
    return static_cast<double>(
               collision_pairs(samples, source.domain_size())) <=
           expected + 3.0;
  };
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProbeResult full = probe_success(
        easy, workloads::uniform_factory(64),
        workloads::paninski_far_factory(64, 1.0), 320, seed, pool);
    const ProbeResult adaptive = probe_success(
        easy, workloads::uniform_factory(64),
        workloads::paninski_far_factory(64, 1.0), 320, seed, pool,
        ProbeFlavor::kAdaptive);
    SCOPED_TRACE(seed);
    EXPECT_EQ(full.passes(), adaptive.passes());
    EXPECT_LE(adaptive.trials, adaptive.budget);
    EXPECT_EQ(adaptive.budget, 320u);
  }
}

TEST(AdaptiveProbe, StopsEarlyOnClearFailure) {
  // A tester that always accepts never rejects far sources, so failure is
  // obvious early. With a long budget the Wilson certificate fires first
  // (0/64 far successes is delta-certifiably below 2/3); with a budget too
  // short for confidence checks (first boundary < min_trials), the
  // deterministic seal fires instead.
  const TesterRun always_accept = [](const SampleSource&, Rng&) {
    return true;
  };
  ThreadPool pool(2);
  const ProbeResult confident = probe_success(
      always_accept, workloads::uniform_factory(64),
      workloads::paninski_far_factory(64, 0.5), 300, 5, pool,
      ProbeFlavor::kAdaptive);
  EXPECT_TRUE(confident.early_stopped());
  EXPECT_EQ(confident.stop, ProbeStop::kConfidence);
  EXPECT_LT(confident.trials, confident.budget);
  EXPECT_FALSE(confident.passes());
  EXPECT_EQ(confident.trials % 32, 0u);  // stopped at a batch boundary

  const ProbeResult sealed = probe_success(
      always_accept, workloads::uniform_factory(64),
      workloads::paninski_far_factory(64, 0.5), 40, 5, pool,
      ProbeFlavor::kAdaptive);
  // At the only checkpoint (32 trials < min_trials ~ 35) confidence is not
  // consulted, but 0 + 8 remaining < (2/3) * 40 seals the failure.
  EXPECT_EQ(sealed.stop, ProbeStop::kDeterministic);
  EXPECT_EQ(sealed.trials, 32u);
  EXPECT_FALSE(sealed.passes());
}

TEST(AdaptiveProbe, ExMatchesBooleanProbe) {
  // A TesterRunEx that never aborts must reproduce the boolean adaptive
  // probe bit for bit (same seed derivation, same tallies).
  const TesterRun tester = noisy_collision_tester();
  const TesterRunEx ex = [&tester](const SampleSource& source, Rng& rng) {
    return tester(source, rng) ? RefereeOutcome::kAccept
                               : RefereeOutcome::kReject;
  };
  ThreadPool pool(4);
  const ProbeResult b = probe_success(
      tester, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 256, 19, pool,
      ProbeFlavor::kAdaptive);
  const ProbeResult e = probe_success(
      ex, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 256, 19, pool,
      ProbeFlavor::kAdaptive);
  expect_probe_equal(b, e);
  EXPECT_EQ(e.aborts(), 0u);
}

TEST(AdaptiveSearch, BracketedSearchFindsTheSameMinimum) {
  // Synthetic deterministic probes: both flavors agree on the cutoff, so
  // the bracketed search must return exactly the full-budget minimum, at
  // every thread count.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 517 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  // The bracket flavor agrees on the cutoff but reports early-stopped
  // 64-trial tallies, so audit entries reveal which flavor produced them.
  const ProbeFn bracket = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 517 ? 64 : 6, 64, 64, 100,
                                     ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  ThreadPool serial(1);
  const auto reference = find_min_param(full, cfg, serial);
  ASSERT_TRUE(reference.found);
  EXPECT_EQ(reference.minimum, 517u);
  cfg.bracket_probe = bracket;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto bracketed = find_min_param(full, cfg, pool);
    ASSERT_TRUE(bracketed.found);
    EXPECT_EQ(bracketed.minimum, reference.minimum);
    // The returned minimum carries full-budget evidence in the audit trail.
    bool full_backed = false;
    for (const auto& [value, probe] : bracketed.probes) {
      if (value == bracketed.minimum && probe.trials == 100 &&
          probe.passes()) {
        full_backed = true;
      }
    }
    EXPECT_TRUE(full_backed);
  }
}

TEST(AdaptiveSearch, RefutedBracketMinimumResumesWithFullProbes) {
  // The bracket probe is overly optimistic (passes from 60 up) while the
  // full probe needs 100: the full-budget confirmation refutes the bracket
  // minimum and the search must resume above it, still landing on 100.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 100 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  const ProbeFn bracket = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 60 ? 64 : 6, 64, 64, 100,
                                     ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  cfg.bracket_probe = bracket;
  for (const unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto result = find_min_param(full, cfg, pool);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.minimum, 100u);
  }
}

TEST(AdaptiveSearch, BracketGiveUpIsConfirmedAtFullBudget) {
  // The bracket probe never passes, but the full probe does: the search
  // must not trust the bracket flavor's give-up at cfg.hi, and falls back
  // to a full-budget search instead of reporting not-found.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 100 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  const ProbeFn bracket = [](std::uint64_t) {
    return probe_result_from_tallies(6, 64, 64, 100, ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 256;
  cfg.bracket_probe = bracket;
  ThreadPool pool(4);
  const auto result = find_min_param(full, cfg, pool);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.minimum, 100u);
  // And when the full probe also never passes, not-found stands.
  const ProbeFn never = [](std::uint64_t) {
    return probe_result_from_tallies(10, 100, 100, 100, ProbeStop::kExhausted);
  };
  const auto nothing = find_min_param(never, cfg, pool);
  EXPECT_FALSE(nothing.found);
}

TEST(SearchWork, ProbeCallsMatchTheAuditTrail) {
  // The search computes only what it consults: at any pool size, the probe
  // calls of both flavors are exactly the audit entries, in order. Each
  // (full cutoff, bracket cutoff) row reaches a different exit: pass at lo,
  // bisection, a refuted bracket minimum, a bracket give-up overturned at
  // full budget, and not-found.
  struct Cutoffs {
    std::uint64_t full;
    std::uint64_t bracket;
  };
  const std::vector<Cutoffs> rows = {
      {2, 2}, {37, 37}, {517, 517}, {100, 60}, {100, 9999}, {5000, 5000}};
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const Cutoffs& c : rows) {
      for (const bool bracketed : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " full=" << c.full
                     << " bracket=" << c.bracket << " bracketed=" << bracketed);
        // (value, bracket flavor) per call; the mutex keeps the log sound
        // even if a search were to call probes concurrently.
        std::mutex mu;
        std::vector<std::pair<std::uint64_t, bool>> calls;
        const auto counting = [&](std::uint64_t cutoff, bool bracket) {
          return ProbeFn([&, cutoff, bracket](std::uint64_t value) {
            {
              const std::lock_guard<std::mutex> lock(mu);
              calls.emplace_back(value, bracket);
            }
            // The flavors report different trial counts, so an audit entry
            // reveals which probe produced it.
            const std::uint64_t t = bracket ? 64 : 100;
            return probe_result_from_tallies(
                value >= cutoff ? t : t / 10, t, t, 100,
                bracket ? ProbeStop::kConfidence : ProbeStop::kExhausted);
          });
        };
        MinSearchConfig cfg;
        cfg.lo = 2;
        cfg.hi = 4096;
        if (bracketed) cfg.bracket_probe = counting(c.bracket, true);
        const auto result = find_min_param(counting(c.full, false), cfg, pool);
        ASSERT_EQ(calls.size(), result.probes.size());
        for (std::size_t i = 0; i < calls.size(); ++i) {
          EXPECT_EQ(calls[i].first, result.probes[i].first) << "call " << i;
          EXPECT_EQ(calls[i].second, result.probes[i].second.trials == 64)
              << "call " << i;
        }
      }
    }
  }
}

TEST(ParallelProbe, DefaultOverloadUsesGlobalPool) {
  // The default pool argument is ThreadPool::global(); results must match
  // an explicit serial pool whatever DUTI_THREADS says.
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(tester, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 150, 29, serial);
  const ProbeResult via_global =
      probe_success(tester, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 150, 29);
  expect_probe_equal(reference, via_global);
}

}  // namespace
}  // namespace duti
