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

// Integer tallies of a set of trials, one flat array of counts, so a merge
// is one elementwise add. Every field is a count, so merging tallies in any
// order gives the same totals (integer addition, no rounding).
struct Tally {
  enum Field : std::size_t {
    kUniformSuccesses = 0,
    kFarSuccesses,
    kUniformAbortsQuorum,
    kFarAbortsQuorum,
    kFieldCount,
  };
  std::array<std::uint64_t, kFieldCount> counts{};

  std::uint64_t& operator[](Field f) noexcept { return counts[f]; }
  std::uint64_t operator[](Field f) const noexcept { return counts[f]; }

  void record_uniform(bool success) noexcept {
    counts[kUniformSuccesses] += success ? 1 : 0;
  }
  void record_far(bool success) noexcept {
    counts[kFarSuccesses] += success ? 1 : 0;
  }

  void merge(const Tally& other) noexcept {
    for (std::size_t f = 0; f < kFieldCount; ++f) counts[f] += other.counts[f];
  }
};

// One worker slot's tallies for a whole probe: only the thread running the
// slot touches it during a loop, and each slot has its own cache lines, so
// workers never write to a shared line.
struct alignas(64) WorkerSlot {
  Tally tally;
};

// Stream salts of a trial's uniform and far sources.
constexpr std::uint64_t kUniformSourceSalt = 0xF00DULL;
constexpr std::uint64_t kFarSourceSalt = 0xFA5ULL;

// A trial-invariant side's one source for the whole probe, built from trial
// 0's stream (the factory ignores it), or null for a side that builds a
// fresh source per trial.
std::unique_ptr<SampleSource> invariant_source(const SourceSpec& spec,
                                               std::uint64_t seed,
                                               std::uint64_t salt) {
  if (!spec.trial_invariant()) return nullptr;
  Rng rng = make_rng(seed, salt, 0);
  return spec(rng);
}

// The source one trial side reads: the probe's shared source, or a fresh
// one from the trial's stream.
const SampleSource& trial_source(const SourceSpec& spec,
                                 const SampleSource* shared, Rng& rng,
                                 std::unique_ptr<SampleSource>& fresh) {
  if (shared != nullptr) return *shared;
  fresh = spec(rng);
  return *fresh;
}

// Run trials [t0, t1), one per claim, into the claiming worker's slot. Trial
// t derives its RNG streams from (seed, salt, t) alone — the GLOBAL trial
// index — so a range executed in batches sees exactly the trials the
// one-shot probe would run, and the full/adaptive probes agree
// trial-for-trial. Which slot runs a trial depends on timing, but the slots
// hold only integer counts, so their merge is bit-identical at any thread
// count. One trial per claim keeps every worker on trials until the last
// one is taken.
template <typename Runs>
void run_trial_range(const Runs& runs, const SourceSpec& uniform_source,
                     const SampleSource* uniform_shared,
                     const SourceSpec& far_source,
                     const SampleSource* far_shared, std::size_t t0,
                     std::size_t t1, std::uint64_t seed, ThreadPool& pool,
                     std::vector<WorkerSlot>& slots) {
  pool.parallel_for(
      t1 - t0, 1, [&](std::size_t begin, std::size_t end, unsigned worker) {
        WorkerSlot& slot = slots[worker];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t t = t0 + i;
          {
            Rng rng = make_rng(seed, kUniformSourceSalt, t);
            std::unique_ptr<SampleSource> fresh;
            const SampleSource& source =
                trial_source(uniform_source, uniform_shared, rng, fresh);
            Rng run_rng = make_rng(seed, 0xBEEFULL, t);
            runs.uniform(source, run_rng, slot.tally);
          }
          {
            Rng rng = make_rng(seed, kFarSourceSalt, t);
            std::unique_ptr<SampleSource> fresh;
            const SampleSource& source =
                trial_source(far_source, far_shared, rng, fresh);
            Rng run_rng = make_rng(seed, 0xCAFEULL, t);
            runs.far(source, run_rng, slot.tally);
          }
        }
      });
}

// The tallies of every trial run so far: the slots' merge.
Tally merged_tally(const std::vector<WorkerSlot>& slots) {
  Tally total;
  for (const WorkerSlot& slot : slots) total.merge(slot.tally);
  return total;
}

ProbeResult finalize_tally(const Tally& total, std::uint64_t trials,
                           std::uint64_t budget, ProbeStop stop) {
  ProbeResult out = probe_result_from_tallies(
      total[Tally::kUniformSuccesses], total[Tally::kFarSuccesses],
      trials, budget, stop);
  out.uniform_aborts_quorum = total[Tally::kUniformAbortsQuorum];
  out.far_aborts_quorum = total[Tally::kFarAbortsQuorum];
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

  // Each trial-invariant side's source is built once per probe, here,
  // before the first batch, and every worker reads that one source.
  const std::unique_ptr<SampleSource> uniform_shared =
      invariant_source(uniform_source, seed, kUniformSourceSalt);
  const std::unique_ptr<SampleSource> far_shared =
      invariant_source(far_source, seed, kFarSourceSalt);
  std::vector<WorkerSlot> slots(pool.size());
  Tally total;
  const double budget_d = static_cast<double>(max_trials);
  std::size_t done = 0;
  while (done < max_trials) {
    const std::size_t next = std::min(done + batch, max_trials);
    run_trial_range(runs, uniform_source, uniform_shared.get(), far_source,
                    far_shared.get(), done, next, seed, pool, slots);
    total = merged_tally(slots);
    done = next;
    if (done == max_trials) break;

    const std::uint64_t us = total[Tally::kUniformSuccesses];
    const std::uint64_t fs = total[Tally::kFarSuccesses];
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
  void uniform(const SampleSource& source, Rng& rng, Tally& tally) const {
    tally.record_uniform(tester(source, rng));
  }
  void far(const SampleSource& source, Rng& rng, Tally& tally) const {
    tally.record_far(!tester(source, rng));
  }
};

struct ExRuns {
  const TesterRunEx& tester;
  void uniform(const SampleSource& source, Rng& rng, Tally& tally) const {
    const RefereeOutcome o = tester(source, rng);
    tally.record_uniform(o == RefereeOutcome::kAccept);
    if (o == RefereeOutcome::kAbortQuorum) {
      ++tally[Tally::kUniformAbortsQuorum];
    }
  }
  void far(const SampleSource& source, Rng& rng, Tally& tally) const {
    const RefereeOutcome o = tester(source, rng);
    tally.record_far(o == RefereeOutcome::kReject);
    if (o == RefereeOutcome::kAbortQuorum) ++tally[Tally::kFarAbortsQuorum];
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
