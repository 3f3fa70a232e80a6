#include "stats/harness.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

ProbeResult probe_result_from_tallies(std::uint64_t uniform_successes,
                                      std::uint64_t far_successes,
                                      std::uint64_t trials,
                                      std::uint64_t budget, ProbeStop stop) {
  ProbeResult out;
  out.uniform_successes = uniform_successes;
  out.far_successes = far_successes;
  out.trials = trials;
  out.budget = budget;
  out.stop = stop;
  if (trials > 0) {
    out.uniform_accept_rate = static_cast<double>(uniform_successes) /
                              static_cast<double>(trials);
    out.far_reject_rate =
        static_cast<double>(far_successes) / static_cast<double>(trials);
  }
  out.uniform_ci = wilson_interval(uniform_successes, trials);
  out.far_ci = wilson_interval(far_successes, trials);
  return out;
}

namespace {

// Bisection answers midpoints with the bracket probe until the bracket is at
// most this wide; the final steps always run at full budget.
constexpr std::uint64_t kFullBudgetWidth = 8;

// Partial tallies for one chunk of trials, stored as one flat array of
// integer counts so chunk reduction is one elementwise add. Merging chunks
// in chunk order reproduces the serial tally exactly (integer addition, no
// rounding).
struct ChunkTally {
  enum Field : std::size_t {
    kUniformSuccesses = 0,
    kUniformTrials,
    kFarSuccesses,
    kFarTrials,
    kUniformAbortsQuorum,
    kUniformAbortsTimeout,
    kFarAbortsQuorum,
    kFarAbortsTimeout,
    kFieldCount,
  };
  std::array<std::uint64_t, kFieldCount> counts{};

  std::uint64_t& operator[](Field f) noexcept { return counts[f]; }
  std::uint64_t operator[](Field f) const noexcept { return counts[f]; }

  void record_uniform(bool success) noexcept {
    ++counts[kUniformTrials];
    counts[kUniformSuccesses] += success ? 1 : 0;
  }
  void record_far(bool success) noexcept {
    ++counts[kFarTrials];
    counts[kFarSuccesses] += success ? 1 : 0;
  }

  void merge(const ChunkTally& other) noexcept {
    for (std::size_t f = 0; f < kFieldCount; ++f) counts[f] += other.counts[f];
  }
};

// Per-worker cache for trial-invariant sources: materialized on first use,
// reused for every later trial that worker runs (the allocation hoist).
struct WorkerSources {
  std::unique_ptr<SampleSource> uniform;
  std::unique_ptr<SampleSource> far;
};

// Materialize (or fetch the cached) source for one trial side.
const SampleSource& trial_source(const SourceSpec& spec, Rng& rng,
                                 std::unique_ptr<SampleSource>& cached,
                                 std::unique_ptr<SampleSource>& fresh) {
  if (spec.trial_invariant()) {
    if (!cached) cached = spec(rng);
    return *cached;
  }
  fresh = spec(rng);
  return *fresh;
}

// Run trials [t0, t1) and fold their tallies into `total`. Trial t derives
// its RNG streams from (seed, salt, t) alone — the GLOBAL trial index — so
// a range executed in batches sees exactly the trials the one-shot probe
// would run, and the full/adaptive probes agree trial-for-trial. Chunks are
// reduced in chunk order; all counts are integers, so the merged tally is
// bit-identical at any thread count.
template <typename Runs>
void run_trial_range(const Runs& runs, const SourceSpec& uniform_source,
                     const SourceSpec& far_source, std::size_t t0,
                     std::size_t t1, std::uint64_t seed, ThreadPool& pool,
                     std::vector<WorkerSources>& cached, ChunkTally& total) {
  const std::size_t count = t1 - t0;
  // ~4 chunks per worker for load balance. The chunk layout varies with the
  // pool size, but the reduction is exact integer addition, so the merged
  // result does not.
  const std::size_t workers = pool.size();
  const std::size_t grain =
      std::max<std::size_t>(1, (count + 4 * workers - 1) / (4 * workers));
  const std::size_t chunks = (count + grain - 1) / grain;

  std::vector<ChunkTally> tallies(chunks);
  pool.parallel_for(
      count, grain, [&](std::size_t begin, std::size_t end, unsigned worker) {
        ChunkTally& tally = tallies[begin / grain];
        WorkerSources& ws = cached[worker];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t t = t0 + i;
          {
            Rng rng = make_rng(seed, 0xF00DULL, t);
            std::unique_ptr<SampleSource> fresh;
            const SampleSource& source =
                trial_source(uniform_source, rng, ws.uniform, fresh);
            Rng run_rng = make_rng(seed, 0xBEEFULL, t);
            runs.uniform(source, run_rng, tally);
          }
          {
            Rng rng = make_rng(seed, 0xFA5ULL, t);
            std::unique_ptr<SampleSource> fresh;
            const SampleSource& source =
                trial_source(far_source, rng, ws.far, fresh);
            Rng run_rng = make_rng(seed, 0xCAFEULL, t);
            runs.far(source, run_rng, tally);
          }
        }
      });

  for (const ChunkTally& tally : tallies) total.merge(tally);
}

ProbeResult finalize_tally(const ChunkTally& total, std::uint64_t trials,
                           std::uint64_t budget, ProbeStop stop) {
  ProbeResult out = probe_result_from_tallies(
      total[ChunkTally::kUniformSuccesses], total[ChunkTally::kFarSuccesses],
      trials, budget, stop);
  out.uniform_aborts_quorum = total[ChunkTally::kUniformAbortsQuorum];
  out.uniform_aborts_timeout = total[ChunkTally::kUniformAbortsTimeout];
  out.far_aborts_quorum = total[ChunkTally::kFarAbortsQuorum];
  out.far_aborts_timeout = total[ChunkTally::kFarAbortsTimeout];
  return out;
}

// The probe engine. The full flavor makes the whole budget one batch, so it
// runs [0, max_trials) as a single range and consults no certificate. The
// adaptive flavor (DESIGN.md section 8) runs deterministic batches and,
// after each completed batch, consults two certificate families:
//
//   Deterministic ("the budget cannot flip it"): if even with every
//   remaining trial succeeding a side's final rate stays below the bar —
//   or with every remaining trial failing both sides stay at/above it — the
//   full-budget pass/fail verdict is already decided, and stopping cannot
//   disagree with it.
//
//   Confidence (Wilson sequence): if both sides' Wilson lower bounds clear
//   the bar, or either side's upper bound is below it, at a z corrected
//   for every peek the schedule could make (union bound over 2 sides x K
//   checkpoints), stop; wrong with probability at most kAdaptiveDelta.
//
// In every stopping case the returned result's passes() equals the
// certified verdict: Wilson intervals contain the empirical rate, and the
// deterministic bounds sandwich it (worst-case final rates bracket the
// current rate because successes/trials is monotone in both coordinates).
template <typename Runs>
ProbeResult run_probe(const Runs& runs, const SourceSpec& uniform_source,
                      const SourceSpec& far_source, std::size_t max_trials,
                      std::uint64_t seed, ThreadPool& pool,
                      ProbeFlavor flavor) {
  require(static_cast<bool>(runs.tester), "probe_success: null tester");
  require(static_cast<bool>(uniform_source), "probe: null uniform factory");
  require(static_cast<bool>(far_source), "probe: null far factory");
  require(max_trials >= 1, "probe: need at least one trial");
  const std::size_t batch =
      flavor == ProbeFlavor::kAdaptive ? kAdaptiveBatch : max_trials;

  // Before this many trials not even a perfect run separates from the
  // bar at confidence delta (Hoeffding), so earlier confidence checks
  // only burn union-bound budget.
  const std::size_t min_trials =
      hoeffding_trials(1.0 - kSuccessBar, kAdaptiveDelta);
  // Checkpoints at batch boundaries strictly before exhaustion; 2 interval
  // evaluations (uniform + far side) per checkpoint.
  const std::uint64_t checks =
      max_trials > batch
          ? static_cast<std::uint64_t>((max_trials - 1) / batch)
          : 0;
  const double z =
      checks > 0 ? union_bound_z(kAdaptiveDelta, 2 * checks) : 0.0;

  std::vector<WorkerSources> cached(pool.size());
  ChunkTally total;
  const double budget_d = static_cast<double>(max_trials);
  std::size_t done = 0;
  while (done < max_trials) {
    const std::size_t next = std::min(done + batch, max_trials);
    run_trial_range(runs, uniform_source, far_source, done, next, seed, pool,
                    cached, total);
    done = next;
    if (done == max_trials) break;

    const std::uint64_t us = total[ChunkTally::kUniformSuccesses];
    const std::uint64_t fs = total[ChunkTally::kFarSuccesses];
    const auto remaining = static_cast<std::uint64_t>(max_trials - done);
    // Worst-case FINAL rates if the remaining trials all fail / all succeed.
    const bool pass_sure =
        static_cast<double>(us) / budget_d >= kSuccessBar &&
        static_cast<double>(fs) / budget_d >= kSuccessBar;
    const bool fail_sure =
        static_cast<double>(us + remaining) / budget_d < kSuccessBar ||
        static_cast<double>(fs + remaining) / budget_d < kSuccessBar;
    if (pass_sure || fail_sure) {
      return finalize_tally(total, done, max_trials,
                            ProbeStop::kDeterministic);
    }
    if (checks > 0 && done >= min_trials) {
      const ProbeResult interim =
          finalize_tally(total, done, max_trials, ProbeStop::kConfidence);
      if (interim.passes_with_margin(z) || interim.fails_with_margin(z)) {
        return interim;
      }
    }
  }
  return finalize_tally(total, done, max_trials, ProbeStop::kExhausted);
}

// Tally adapters for the boolean and RefereeOutcome testers.
struct BoolRuns {
  const TesterRun& tester;
  void uniform(const SampleSource& source, Rng& rng, ChunkTally& tally) const {
    tally.record_uniform(tester(source, rng));
  }
  void far(const SampleSource& source, Rng& rng, ChunkTally& tally) const {
    tally.record_far(!tester(source, rng));
  }
};

struct ExRuns {
  const TesterRunEx& tester;
  void uniform(const SampleSource& source, Rng& rng, ChunkTally& tally) const {
    const RefereeOutcome o = tester(source, rng);
    tally.record_uniform(o == RefereeOutcome::kAccept);
    if (o == RefereeOutcome::kAbortQuorum) {
      ++tally[ChunkTally::kUniformAbortsQuorum];
    }
    if (o == RefereeOutcome::kAbortTimeout) {
      ++tally[ChunkTally::kUniformAbortsTimeout];
    }
  }
  void far(const SampleSource& source, Rng& rng, ChunkTally& tally) const {
    const RefereeOutcome o = tester(source, rng);
    tally.record_far(o == RefereeOutcome::kReject);
    if (o == RefereeOutcome::kAbortQuorum) ++tally[ChunkTally::kFarAbortsQuorum];
    if (o == RefereeOutcome::kAbortTimeout) {
      ++tally[ChunkTally::kFarAbortsTimeout];
    }
  }
};

}  // namespace

ProbeResult probe_success(const TesterRun& tester,
                          const SourceSpec& uniform_source,
                          const SourceSpec& far_source, std::size_t trials,
                          std::uint64_t seed, ThreadPool& pool,
                          ProbeFlavor flavor) {
  return run_probe(BoolRuns{tester}, uniform_source, far_source, trials, seed,
                   pool, flavor);
}

ProbeResult probe_success(const TesterRunEx& tester,
                          const SourceSpec& uniform_source,
                          const SourceSpec& far_source, std::size_t trials,
                          std::uint64_t seed, ThreadPool& pool,
                          ProbeFlavor flavor) {
  return run_probe(ExRuns{tester}, uniform_source, far_source, trials, seed,
                   pool, flavor);
}

// When cfg.bracket_probe is set it handles the exponential bracketing rungs
// and wide bisection midpoints, while the full-budget probe decides the
// final steps and confirms the returned minimum.
MinSearchResult find_min_param(const ProbeFn& probe,
                               const MinSearchConfig& cfg, ThreadPool& pool) {
  require(static_cast<bool>(probe), "find_min_param: null probe");
  require(cfg.lo >= 1 && cfg.lo <= cfg.hi, "find_min_param: bad range");
  const bool bracketed = static_cast<bool>(cfg.bracket_probe);
  MinSearchResult result;

  // Every probe the search runs is one it consults: the audit trail lists
  // them in call order, and a probe's exception propagates unchanged.
  auto consult = [&](std::uint64_t value, bool use_bracket) {
    const ProbeResult r = (use_bracket ? cfg.bracket_probe : probe)(value);
    result.probes.emplace_back(value, r);
    return r.passes();
  };

  // Exponential bracketing: find the first power-of-two multiple of lo that
  // passes. Rungs far from the threshold are exactly where adaptive probes
  // certify fastest, so the bracket flavor handles this whole phase.
  std::uint64_t hi = cfg.lo;
  for (;;) {
    if (consult(hi, bracketed)) break;
    if (hi >= cfg.hi) {
      // Bracket-flavor give-up is only delta-sure; confirm at full budget
      // before declaring the whole range failed.
      if (bracketed && consult(cfg.hi, false)) {
        MinSearchConfig full_cfg = cfg;
        full_cfg.bracket_probe = nullptr;
        MinSearchResult rest = find_min_param(probe, full_cfg, pool);
        rest.probes.insert(rest.probes.begin(), result.probes.begin(),
                           result.probes.end());
        return rest;
      }
      result.found = false;
      return result;
    }
    // Double, saturating at cfg.hi (hi * 2 would wrap past 2^64).
    hi = hi > cfg.hi / 2 ? cfg.hi : hi * 2;
  }

  std::uint64_t minimum = 0;
  bool minimum_full_backed = false;
  if (hi == cfg.lo) {
    minimum = cfg.lo;
    minimum_full_backed = !bracketed;
  } else {
    // Binary search in (hi/2, hi]; hi/2 is the last failing rung unless the
    // ladder saturated at cfg.hi. Each midpoint uses the flavor its interval
    // width dictates.
    std::uint64_t lo = hi / 2;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const bool use_bracket = bracketed && (hi - lo) > kFullBudgetWidth;
      if (consult(mid, use_bracket)) {
        hi = mid;
        minimum_full_backed = !use_bracket;
      } else {
        lo = mid;
      }
    }
    minimum = hi;
  }

  // The returned minimum must carry full-budget evidence. If its pass came
  // from the bracket flavor, confirm; a failed confirmation (the bracket
  // certificate mis-fired, probability <= its delta) resumes the search
  // above the refuted value with full-budget probes.
  if (bracketed && !minimum_full_backed) {
    if (!consult(minimum, false)) {
      if (minimum >= cfg.hi) {
        result.found = false;
        return result;
      }
      MinSearchConfig rest_cfg = cfg;
      rest_cfg.lo = minimum + 1;
      rest_cfg.bracket_probe = nullptr;
      MinSearchResult rest = find_min_param(probe, rest_cfg, pool);
      rest.probes.insert(rest.probes.begin(), result.probes.begin(),
                         result.probes.end());
      return rest;
    }
  }
  result.found = true;
  result.minimum = minimum;
  return result;
}

}  // namespace duti
