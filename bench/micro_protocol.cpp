// Measures the batched protocol plane (src/sim/protocol_batch.hpp) against
// the legacy SimultaneousProtocol path on the threshold-tester q*-search
// workload, and ENFORCES the contracts the plane ships with:
//
//   legacy  : tester.make_protocol().run(...) per trial — the historical
//             allocating path (fresh players, messages, votes every trial).
//   batched : tester.run(...) — vote functor + referee rule resolved once,
//             trials through flat per-worker buffers, incremental tally.
//
// Gates (nonzero exit on any failure):
//   - batched ns/trial beats legacy by >= 3x at the searched q*
//   - zero heap allocations per trial on the batched path (global
//     operator-new counter)
//   - verdicts and per-player message bits: batched == legacy, trial by
//     trial, on uniform and far sources
//   - q*-search minima: batched == legacy, and batched at 8 threads ==
//     batched at 1 thread; ProbeResult tallies identical across pools
//   - rerunning the batched search services every referee calibration
//     from the memo (zero misses)
//
// Emits BENCH_protocol.json. ns/trial numbers are wall-clock and recorded
// for the speedup gate only; every correctness gate is on integer tallies
// and bit-identity, which thread count cannot change.
//
// duti-lint: allow-file(no-wall-clock) -- the ns/trial rows are wall-clock
// by nature (the 3x gate is the point of the lane); they never feed a
// ProbeResult, and all correctness gates are on bit-identical tallies.
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
#include "testers/calibration.hpp"
#include "testers/distributed.hpp"

// --- Global allocation counter ---------------------------------------------
// Replaces the global allocation functions so the zero-alloc gate can count
// every heap allocation made inside a timed trial loop, including aligned
// variants (the SIMD kernels' buffers must not sneak past the gate).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace duti;

/// One measured execution plane: best-of-reps ns/trial, allocations per
/// trial in steady state (after a warm-up rep has grown every buffer), and
/// an accept-count checksum so the compiler cannot elide the loop.
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

/// Probe over q for the threshold tester at (n, k, eps). `batched` picks
/// the execution plane; calibration and probe seeds depend only on
/// (seed, q), so the legacy and batched searches see identical testers
/// (the second construction at each q is a calibration-memo hit that
/// restores the same RNG exit state) and identical trial streams.
ProbeFn make_q_probe(std::uint64_t n, unsigned k, double eps,
                     std::size_t trials, std::uint64_t seed, bool batched,
                     ThreadPool& pool) {
  return [n, k, eps, trials, seed, batched, &pool](std::uint64_t q) {
    DistributedTesterConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.q = static_cast<unsigned>(q);
    cfg.eps = eps;
    Rng calib_rng = make_rng(seed, q, 0xCA11B);
    auto tester = std::make_shared<DistributedThresholdTester>(cfg, calib_rng);
    TesterRun run;
    if (batched) {
      run = [tester](const SampleSource& s, Rng& r) { return tester->run(s, r); };
    } else {
      auto proto = std::make_shared<SimultaneousProtocol>(tester->make_protocol());
      const DecisionRule rule = tester->make_rule();
      run = [proto, rule](const SampleSource& s, Rng& r) {
        return proto->run(s, r, rule).accept;
      };
    }
    return probe_success(run, workloads::uniform_factory(n),
                         workloads::paninski_far_factory(n, eps), trials,
                         derive_seed(seed, q), pool);
  };
}

bool same_tallies(const ProbeResult& a, const ProbeResult& b) {
  return a.trials == b.trials && a.uniform_successes == b.uniform_successes &&
         a.far_successes == b.far_successes;
}

int run_bench(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::printf(
        "micro_protocol --n=4096 --k=64 --eps=0.25 --trials=150 --seed=1 "
        "[--quick]\n");
    return 0;
  }
  bench::CommonFlags flags(cli);
  const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 4096));
  const unsigned k = static_cast<unsigned>(cli.get_int("k", 64));
  const double eps = cli.get_double("eps", 0.25);
  const std::size_t search_trials =
      flags.quick ? 60 : static_cast<std::size_t>(flags.trials);
  const std::size_t timing_trials = flags.quick ? 400 : 2000;
  const int timing_reps = flags.quick ? 2 : 3;
  const std::size_t identity_trials = flags.quick ? 128 : 512;
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.seed);

  bench::banner("micro_protocol",
                "batched protocol plane: >=3x ns/trial vs legacy, zero "
                "per-trial allocations, bit-identical verdicts and minima");

  ThreadPool pool1(1);
  ThreadPool pool8(8);

  // --- q*-search minima: legacy vs batched, 1 vs 8 threads -----------------
  CalibMemo::global().reset_stats();
  MinSearchConfig search;
  search.lo = 2;
  search.hi = 1ULL << 12;
  search.trials = search_trials;
  search.seed = seed;

  // The three searches below are the measurement itself: the same single
  // q*-search run against legacy and batched executors, cold vs memoized.
  // Routing them through run_sweep would share probes across the planes
  // being compared.
  const MinSearchResult min_legacy = find_min_param(  // duti-lint: allow(no-serial-sweep-loop) -- legacy-plane baseline of the comparison
      make_q_probe(n, k, eps, search_trials, seed, false, pool1), search,
      pool1);
  const CalibMemo::Stats cold_stats = CalibMemo::global().stats();

  CalibMemo::global().reset_stats();
  const MinSearchResult min_batched1 = find_min_param(  // duti-lint: allow(no-serial-sweep-loop) -- batched-plane arm of the comparison
      make_q_probe(n, k, eps, search_trials, seed, true, pool1), search,
      pool1);
  const CalibMemo::Stats rerun_stats = CalibMemo::global().stats();

  const MinSearchResult min_batched8 = find_min_param(  // duti-lint: allow(no-serial-sweep-loop) -- thread-invariance arm of the comparison
      make_q_probe(n, k, eps, search_trials, seed, true, pool8), search,
      pool8);

  const bool minima_match = min_legacy.found == min_batched1.found &&
                            min_legacy.minimum == min_batched1.minimum;
  const bool threads_match = min_batched1.found == min_batched8.found &&
                             min_batched1.minimum == min_batched8.minimum;
  // The batched search rebuilds the exact testers the legacy search
  // calibrated; every referee calibration must come from the memo.
  const bool rerun_all_hits = rerun_stats.misses == 0 && rerun_stats.hits > 0;
  const double hit_rate =
      rerun_stats.hits + rerun_stats.misses > 0
          ? static_cast<double>(rerun_stats.hits) /
                static_cast<double>(rerun_stats.hits + rerun_stats.misses)
          : 0.0;
  const std::uint64_t q_star =
      min_batched1.found ? min_batched1.minimum : 128;
  std::printf(
      "q*-search: legacy=%llu batched(t1)=%llu batched(t8)=%llu "
      "calib[memo]: cold misses=%llu, rerun hits=%llu misses=%llu\n",
      static_cast<unsigned long long>(min_legacy.minimum),
      static_cast<unsigned long long>(min_batched1.minimum),
      static_cast<unsigned long long>(min_batched8.minimum),
      static_cast<unsigned long long>(cold_stats.misses),
      static_cast<unsigned long long>(rerun_stats.hits),
      static_cast<unsigned long long>(rerun_stats.misses));

  // --- ProbeResult tallies across pools at q* ------------------------------
  const ProbeResult tally1 =
      make_q_probe(n, k, eps, search_trials, seed, true, pool1)(q_star);
  const ProbeResult tally8 =
      make_q_probe(n, k, eps, search_trials, seed, true, pool8)(q_star);
  const bool pools_match = same_tallies(tally1, tally8);

  // --- Trial-by-trial verdict and message identity at q* -------------------
  DistributedTesterConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.q = static_cast<unsigned>(q_star);
  cfg.eps = eps;
  Rng calib_rng = make_rng(seed, q_star, 0xCA11B);
  const DistributedThresholdTester tester(cfg, calib_rng);
  const SimultaneousProtocol proto = tester.make_protocol();
  const DecisionRule rule = tester.make_rule();

  std::uint64_t verdict_mismatches = 0;
  std::uint64_t message_mismatches = 0;
  {
    std::vector<Message> batched_msgs;
    std::vector<std::uint8_t> batched_votes;
    Rng src_rng(derive_seed(seed, 0x5eed));
    for (std::size_t t = 0; t < identity_trials; ++t) {
      // Alternate uniform and fresh eps-far sources; both planes must agree
      // on every trial, message for message.
      std::unique_ptr<SampleSource> far;
      const UniformSource uniform(n);
      const SampleSource* src = &uniform;
      if (t % 2 == 1) {
        far = workloads::paninski_far_factory(n, eps)(src_rng);
        src = far.get();
      }
      Rng rng_a(derive_seed(seed, 0x1de, t));
      Rng rng_b(derive_seed(seed, 0x1de, t));
      const ProtocolResult legacy_res = proto.run(*src, rng_a, rule);
      const bool batched_accept =
          tester.executor().run(*src, rng_b, rule, batched_msgs, batched_votes);
      if (legacy_res.accept != batched_accept) ++verdict_mismatches;
      for (unsigned j = 0; j < k; ++j) {
        if (legacy_res.messages[j].bits != batched_msgs[j].bits ||
            legacy_res.messages[j].width != batched_msgs[j].width) {
          ++message_mismatches;
          break;
        }
      }
    }
  }
  const bool verdicts_match = verdict_mismatches == 0 && message_mismatches == 0;
  std::printf("identity: %zu trials, %llu verdict / %llu message mismatches\n",
              identity_trials,
              static_cast<unsigned long long>(verdict_mismatches),
              static_cast<unsigned long long>(message_mismatches));

  // --- ns/trial: legacy vs batched at q* -----------------------------------
  const UniformSource timing_src(n);
  const PlaneRow legacy_row = measure_plane(
      [&](Rng& rng) { return proto.run(timing_src, rng, rule).accept; },
      timing_trials, timing_reps, derive_seed(seed, 0x71));
  const PlaneRow batched_row = measure_plane(
      [&](Rng& rng) { return tester.run(timing_src, rng); }, timing_trials,
      timing_reps, derive_seed(seed, 0x73));

  const double speedup = legacy_row.ns_per_trial / batched_row.ns_per_trial;
  const bool speedup_ok = speedup >= 3.0;
  const bool zero_alloc = batched_row.allocs_per_trial == 0.0;
  std::printf(
      "ns/trial at q*=%llu: legacy=%.0f (%.1f allocs) "
      "batched=%.0f (%.2f allocs) -> %.2fx\n",
      static_cast<unsigned long long>(q_star), legacy_row.ns_per_trial,
      legacy_row.allocs_per_trial, batched_row.ns_per_trial,
      batched_row.allocs_per_trial, speedup);

  const bool ok = minima_match && threads_match && pools_match &&
                  verdicts_match && rerun_all_hits && speedup_ok && zero_alloc;

  const std::string path = bench::emit_bench_json(
      "protocol", bench::resolved_env(),
      {{"quick", bench::json_bool(flags.quick)},
       {"n", bench::json_u64(n)},
       {"k", bench::json_u64(k)},
       {"eps", bench::json_num(eps)},
       {"q_star", bench::json_u64(q_star)},
       {"search_trials", bench::json_u64(search_trials)},
       {"timing_trials", bench::json_u64(timing_trials)},
       {"legacy_ns_per_trial", bench::json_num(legacy_row.ns_per_trial)},
       {"batched_ns_per_trial", bench::json_num(batched_row.ns_per_trial)},
       {"speedup", bench::json_num(speedup)},
       {"legacy_allocs_per_trial", bench::json_num(legacy_row.allocs_per_trial)},
       {"batched_allocs_per_trial",
        bench::json_num(batched_row.allocs_per_trial)},
       {"min_q_legacy", bench::json_u64(min_legacy.minimum)},
       {"min_q_batched_t1", bench::json_u64(min_batched1.minimum)},
       {"min_q_batched_t8", bench::json_u64(min_batched8.minimum)},
       {"identity_trials", bench::json_u64(identity_trials)},
       {"verdict_mismatches", bench::json_u64(verdict_mismatches)},
       {"message_mismatches", bench::json_u64(message_mismatches)},
       {"calib_cold_misses", bench::json_u64(cold_stats.misses)},
       {"calib_rerun_hits", bench::json_u64(rerun_stats.hits)},
       {"calib_rerun_misses", bench::json_u64(rerun_stats.misses)},
       {"calib_rerun_hit_rate", bench::json_num(hit_rate)},
       {"gate_speedup_3x", bench::json_bool(speedup_ok)},
       {"gate_zero_alloc", bench::json_bool(zero_alloc)},
       {"gate_verdict_identity", bench::json_bool(verdicts_match)},
       {"gate_minima_identity", bench::json_bool(minima_match)},
       {"gate_thread_identity",
        bench::json_bool(threads_match && pools_match)},
       {"gate_calib_rerun_all_hits", bench::json_bool(rerun_all_hits)},
       {"pass", bench::json_bool(ok)}});
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "micro_protocol: GATE FAILURE (speedup=%d zero_alloc=%d "
                 "verdicts=%d minima=%d threads=%d calib=%d)\n",
                 speedup_ok, zero_alloc, verdicts_match, minima_match,
                 threads_match && pools_match, rerun_all_hits);
    return 1;
  }
  std::printf("micro_protocol: all gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_bench(argc, argv); }
