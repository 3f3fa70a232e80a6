// Measures the protocol plane (src/sim/protocol_batch.hpp) on the reference
// q*-search workload (bench::reference_point: the threshold tester at
// n = 4096, k = 64, eps = 0.25), and ENFORCES the contracts it ships with:
//
// Gates (nonzero exit on any failure):
//   - zero heap allocations per trial (global operator-new counter), in
//     steady state on a uniform source and on the first trial of each
//     fresh eps-far source (no draw may build a sampler table)
//   - q*-search minima: 8 threads == 1 thread; ProbeResult tallies at q*
//     identical across pools
//   - the 8-thread search services every referee calibration from the
//     memo the 1-thread search filled (zero misses)
//   - golden outputs: at --quick with the default seed, q* and the FNV-1a
//     fingerprint of the identity trials' messages and verdicts equal the
//     values recorded from the retired per-player runner
//
// Emits BENCH_protocol.json. The ns/trial number is wall-clock and only
// reported; every gate is on integer tallies and bit-identity, which
// thread count cannot change.
//
// duti-lint: allow-file(no-wall-clock) -- the ns/trial row is wall-clock
// by nature; it never feeds a ProbeResult or a gate, and all gates are on
// bit-identical tallies.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "sweep_specs.hpp"
#include "testers/calibration.hpp"
#include "testers/distributed.hpp"
#include "util/fnv.hpp"

// --- Global allocation counter ---------------------------------------------
// Replaces the global allocation functions so the zero-alloc gate can count
// every heap allocation made inside a timed trial loop, including aligned
// variants.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

// The one free() behind every replaced delete, kept out of line: inlined
// into this file's standard allocators, it would read to GCC as freeing a
// pointer that operator new returned (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, a, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

using namespace duti;

/// The measured trial loop: best-of-reps ns/trial, allocations per trial
/// in steady state (after a warm-up rep has grown every buffer), and an
/// accept-count checksum so the compiler cannot elide the loop.
struct PlaneRow {
  double ns_per_trial = 0.0;
  double allocs_per_trial = 0.0;
  std::uint64_t accepts = 0;
};

template <typename TrialFn>
PlaneRow measure_plane(TrialFn&& trial, std::size_t trials, int reps,
                       std::uint64_t seed) {
  PlaneRow row;
  row.ns_per_trial = 1e300;
  {  // Warm-up: grow thread-local buffers outside the measured window.
    Rng rng(derive_seed(seed, 0xAAAA));
    for (int t = 0; t < 8; ++t) (void)trial(rng);
  }
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(derive_seed(seed, rep));
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t accepts = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      accepts += trial(rng) ? 1U : 0U;
    }
    const double secs = bench::seconds_since(t0);
    const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
    row.ns_per_trial =
        std::min(row.ns_per_trial, secs * 1e9 / static_cast<double>(trials));
    row.allocs_per_trial = static_cast<double>(allocs1 - allocs0) /
                           static_cast<double>(trials);
    row.accepts = accepts;
  }
  return row;
}

/// Golden outputs of `micro_protocol --quick` at the default flags,
/// recorded from the retired per-player runner, the plane's former
/// comparator.
struct Golden {
  std::uint64_t seed = 1;
  std::uint64_t q_star = 312;
  std::uint64_t fingerprint = 0xf67f7e86265b4fe4ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool same_tallies(const ProbeResult& a, const ProbeResult& b) {
  return a.trials == b.trials && a.uniform_successes == b.uniform_successes &&
         a.far_successes == b.far_successes;
}

int run_bench(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::printf("micro_protocol --trials=150 --seed=1 [--quick]\n");
    return 0;
  }
  bench::CommonFlags flags(cli);
  cli.reject_unread();
  const std::uint64_t n = bench::kReferenceN;
  const unsigned k = bench::kReferenceK;
  const double eps = bench::kReferenceEps;
  const std::size_t search_trials = flags.quick ? 60 : flags.trials;
  const std::size_t timing_trials = flags.quick ? 400 : 2000;
  const int timing_reps = flags.quick ? 2 : 3;
  const std::size_t identity_trials = flags.quick ? 128 : 512;
  const std::uint64_t seed = flags.seed;

  bench::banner("micro_protocol",
                "protocol plane: zero per-trial allocations, thread-invariant "
                "minima and tallies, golden q* and message fingerprint");

  ThreadPool pool1(1);
  ThreadPool pool8(8);

  // --- q*-search minima: 1 vs 8 threads -------------------------------------
  // Calibration and probe seeds depend only on (seed, q), so searches on
  // different pools see identical testers (a second construction at a q is
  // a calibration-memo hit that restores the same RNG exit state) and
  // identical trial streams.
  SweepPoint reference = bench::reference_point(seed);
  reference.search.trials = search_trials;
  const ProbeFn probe1 = bench::full_budget_probe(reference, pool1);
  const ProbeFn probe8 = bench::full_budget_probe(reference, pool8);
  CalibMemo::global().reset_stats();

  // The two searches below are the measurement itself: the same single
  // q*-search on two pools, cold vs memoized. Routing them through
  // run_sweep would share probes across the arms being compared.
  const MinSearchResult min1 = find_min_param(  // duti-lint: allow(no-serial-sweep-loop) -- 1-thread arm of the comparison
      probe1, reference.search, pool1);
  const CalibMemo::Stats cold_stats = CalibMemo::global().stats();

  CalibMemo::global().reset_stats();
  const MinSearchResult min8 = find_min_param(  // duti-lint: allow(no-serial-sweep-loop) -- thread-invariance arm of the comparison
      probe8, reference.search, pool8);
  const CalibMemo::Stats rerun_stats = CalibMemo::global().stats();

  const bool minima_match =
      min1.found == min8.found && min1.minimum == min8.minimum;
  // The 8-thread search rebuilds the exact testers the 1-thread search
  // calibrated; every referee calibration must come from the memo.
  const bool rerun_all_hits = rerun_stats.misses == 0 && rerun_stats.hits > 0;
  const double hit_rate =
      rerun_stats.hits + rerun_stats.misses > 0
          ? static_cast<double>(rerun_stats.hits) /
                static_cast<double>(rerun_stats.hits + rerun_stats.misses)
          : 0.0;
  const std::uint64_t q_star = min1.found ? min1.minimum : 128;
  std::printf(
      "q*-search: t1=%llu t8=%llu calib[memo]: cold misses=%llu, "
      "rerun hits=%llu misses=%llu\n",
      static_cast<unsigned long long>(min1.minimum),
      static_cast<unsigned long long>(min8.minimum),
      static_cast<unsigned long long>(cold_stats.misses),
      static_cast<unsigned long long>(rerun_stats.hits),
      static_cast<unsigned long long>(rerun_stats.misses));

  // --- ProbeResult tallies across pools at q* ------------------------------
  const ProbeResult tally1 = probe1(q_star);
  const ProbeResult tally8 = probe8(q_star);
  const bool pools_match = same_tallies(tally1, tally8);

  // --- Message and verdict fingerprint at q* -------------------------------
  DistributedTesterConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.q = static_cast<unsigned>(q_star);
  cfg.eps = eps;
  Rng calib_rng = make_rng(seed, q_star, 0xCA11B);
  const DistributedThresholdTester tester(cfg, calib_rng);

  Fnv64 fingerprint;
  {
    Rng src_rng(derive_seed(seed, 0x5eed));
    for (std::size_t t = 0; t < identity_trials; ++t) {
      // Alternate uniform and fresh eps-far sources.
      std::unique_ptr<SampleSource> far;
      const UniformSource uniform(n);
      const SampleSource* src = &uniform;
      if (t % 2 == 1) {
        far = workloads::paninski_far_factory(n, eps)(src_rng);
        src = far.get();
      }
      Rng rng_msgs(derive_seed(seed, 0x1de, t));
      Rng rng_verdict(derive_seed(seed, 0x1de, t));
      // Hash the per-worker messages before run() reuses the buffer.
      for (const Message& m : tester.executor().collect(*src, rng_msgs)) {
        fingerprint.u64(m.bits).u64(m.width);
      }
      fingerprint.u64(tester.run(*src, rng_verdict) ? 1U : 0U);
    }
  }
  const Golden golden;
  const bool golden_applies = flags.quick && seed == golden.seed;
  const bool golden_ok = !golden_applies ||
                         (min1.found && q_star == golden.q_star &&
                          fingerprint.value() == golden.fingerprint);
  std::printf("identity: %zu trials, fingerprint %s (golden: %s)\n",
              identity_trials, hex64(fingerprint.value()).c_str(),
              golden_applies ? (golden_ok ? "match" : "MISMATCH")
                             : "not recorded for these flags");

  // --- ns/trial at q* -------------------------------------------------------
  const UniformSource timing_src(n);
  const PlaneRow row = measure_plane(
      [&](Rng& rng) { return tester.run(timing_src, rng); }, timing_trials,
      timing_reps, derive_seed(seed, 0x73));
  const bool zero_alloc = row.allocs_per_trial == 0.0;
  std::printf("ns/trial at q*=%llu: %.0f (%.2f allocs)\n",
              static_cast<unsigned long long>(q_star), row.ns_per_trial,
              row.allocs_per_trial);

  // --- First trials on fresh far sources ------------------------------------
  // The sources are built outside the counted window, as the probe loops
  // build them outside the plane; the plane's own buffers are warm from the
  // uniform rows above.
  std::vector<std::unique_ptr<SampleSource>> fresh_far;
  {
    Rng src_rng(derive_seed(seed, 0xFA5));
    const SourceSpec far_spec = workloads::paninski_far_factory(n, eps);
    for (int i = 0; i < 16; ++i) fresh_far.push_back(far_spec(src_rng));
  }
  std::uint64_t far_accepts = 0;
  const std::uint64_t far_allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < fresh_far.size(); ++i) {
    Rng rng(derive_seed(seed, 0xFA6, i));
    far_accepts += tester.run(*fresh_far[i], rng) ? 1U : 0U;
  }
  const std::uint64_t far_first_trial_allocs =
      g_allocs.load(std::memory_order_relaxed) - far_allocs0;
  const bool zero_alloc_far = far_first_trial_allocs == 0;
  std::printf("first trials on %zu fresh far sources: %llu allocs "
              "(%llu accepted)\n",
              fresh_far.size(),
              static_cast<unsigned long long>(far_first_trial_allocs),
              static_cast<unsigned long long>(far_accepts));

  const bool ok = minima_match && pools_match && rerun_all_hits &&
                  golden_ok && zero_alloc && zero_alloc_far;

  const std::string path = bench::emit_bench_json(
      "protocol", bench::resolved_env(),
      {{"quick", bench::json_bool(flags.quick)},
       {"n", bench::json_u64(n)},
       {"k", bench::json_u64(k)},
       {"eps", bench::json_num(eps)},
       {"q_star", bench::json_u64(q_star)},
       {"search_trials", bench::json_u64(search_trials)},
       {"timing_trials", bench::json_u64(timing_trials)},
       {"batched_ns_per_trial", bench::json_num(row.ns_per_trial)},
       {"batched_allocs_per_trial", bench::json_num(row.allocs_per_trial)},
       {"far_sources", bench::json_u64(fresh_far.size())},
       {"far_first_trial_allocs", bench::json_u64(far_first_trial_allocs)},
       {"min_q_t1", bench::json_u64(min1.minimum)},
       {"min_q_t8", bench::json_u64(min8.minimum)},
       {"identity_trials", bench::json_u64(identity_trials)},
       {"identity_fingerprint", bench::json_str(hex64(fingerprint.value()))},
       {"golden_checked", bench::json_bool(golden_applies)},
       {"calib_cold_misses", bench::json_u64(cold_stats.misses)},
       {"calib_rerun_hits", bench::json_u64(rerun_stats.hits)},
       {"calib_rerun_misses", bench::json_u64(rerun_stats.misses)},
       {"calib_rerun_hit_rate", bench::json_num(hit_rate)},
       {"gate_zero_alloc", bench::json_bool(zero_alloc)},
       {"gate_zero_alloc_far", bench::json_bool(zero_alloc_far)},
       {"gate_thread_identity", bench::json_bool(minima_match && pools_match)},
       {"gate_calib_rerun_all_hits", bench::json_bool(rerun_all_hits)},
       {"gate_golden", bench::json_bool(golden_ok)},
       {"pass", bench::json_bool(ok)}});
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "micro_protocol: GATE FAILURE (zero_alloc=%d "
                 "zero_alloc_far=%d threads=%d calib=%d golden=%d)\n",
                 zero_alloc, zero_alloc_far, minima_match && pools_match,
                 rerun_all_hits, golden_ok);
    return 1;
  }
  std::printf("micro_protocol: all gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run_bench(argc, argv);
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
