// Perf baseline for the deterministic parallel measurement engine (ISSUE 2):
// times serial vs thread-pooled probe_success on a representative threshold-
// tester probe, and batched vs per-sample drawing, then emits
// BENCH_harness.json (trials/sec per thread count, speedup vs 1 thread) so
// later PRs can track the perf trajectory. Also asserts, at runtime, that
// every thread count produced the bit-identical ProbeResult.
//
// duti-lint: allow-file(no-wall-clock) -- this harness exists to measure
// wall-clock throughput (trials/sec, speedup vs 1 thread); the timed
// quantity never feeds a ProbeResult, and bit-identity is asserted
// separately on the untimed results.
// duti-lint: allow-file(no-serial-sweep-loop) -- this bench measures
// find_min_param ITSELF (fixed vs adaptive bracketing, cache behavior);
// routing it through run_sweep would put the engine between the
// measurement and the thing measured.
#include <chrono>
#include <filesystem>
#include <thread>
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "dist/generators.hpp"
#include "stats/probe_cache.hpp"
#include "stats/workloads.hpp"
#include "testers/centralized.hpp"
#include "testers/fixed_threshold.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace duti;

bool probe_equal(const ProbeResult& a, const ProbeResult& b) {
  return a.uniform_accept_rate == b.uniform_accept_rate &&
         a.far_reject_rate == b.far_reject_rate &&
         a.uniform_ci.lo == b.uniform_ci.lo &&
         a.uniform_ci.hi == b.uniform_ci.hi && a.far_ci.lo == b.far_ci.lo &&
         a.far_ci.hi == b.far_ci.hi && a.trials == b.trials &&
         a.uniform_successes == b.uniform_successes &&
         a.far_successes == b.far_successes && a.budget == b.budget &&
         a.stop == b.stop && a.aborts() == b.aborts();
}

// Forwards sample() but NOT sample_many: the pre-batching baseline, paying
// one virtual dispatch per draw through the default sample_many loop.
class ScalarOnlySource final : public SampleSource {
 public:
  explicit ScalarOnlySource(const SampleSource& inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return inner_.sample(rng);
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return inner_.domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override {
    return inner_.l1_from_uniform();
  }

 private:
  const SampleSource& inner_;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "micro_harness --trials=300 --n=4096 --k=32 --q=64 "
                 "--seed=1 --quick\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto n = static_cast<std::uint64_t>(cli.get_int("n", 4096));
  const auto k = static_cast<unsigned>(cli.get_int("k", 32));
  const auto q = static_cast<unsigned>(cli.get_int("q", 64));
  const auto trials = static_cast<std::size_t>(
      flags.quick ? 60 : cli.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(flags.seed);

  bench::banner("micro_harness  serial vs parallel probe, batched drawing",
                "expected: trials/sec scales with threads (bit-identical "
                "results), batched sample_many beats per-sample dispatch");

  // --- Part 1: probe_success throughput vs thread count. -------------------
  const FixedThresholdTester tester({n, k, q, 0.5, 4});
  const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
    return tester.run(src, rng);
  };
  const auto uniform = workloads::uniform_factory(n);
  const auto far = workloads::paninski_far_factory(n, 0.5);

  struct Point {
    unsigned threads;
    double trials_per_sec;
    double speedup;
  };
  std::vector<Point> points;
  ProbeResult reference;
  bool bit_identical = true;
  double base_tps = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    // Warm-up pass (source caches, page faults), then the timed pass.
    (void)probe_success(run, uniform, far, std::max<std::size_t>(trials / 4, 1),
                        seed, pool);
    const auto start = std::chrono::steady_clock::now();
    const ProbeResult r = probe_success(run, uniform, far, trials, seed, pool);
    const double elapsed = bench::seconds_since(start);
    if (threads == 1) {
      reference = r;
      base_tps = static_cast<double>(trials) / elapsed;
    } else if (!probe_equal(reference, r)) {
      bit_identical = false;
    }
    const double tps = static_cast<double>(trials) / elapsed;
    points.push_back({threads, tps, tps / base_tps});
  }

  Table probe_table({"threads", "trials/sec", "speedup vs 1"});
  for (const auto& p : points) {
    probe_table.add_row({static_cast<std::int64_t>(p.threads),
                         p.trials_per_sec, p.speedup});
  }
  probe_table.print(std::cout, "probe_success throughput (threshold tester)");
  std::cout << "parallel results bit-identical to serial: "
            << (bit_identical ? "YES" : "NO") << "\n";

  // --- Part 2: batched vs per-sample drawing. ------------------------------
  const DistributionSource dist_source(gen::zipf(static_cast<std::size_t>(n),
                                                 1.0));
  const ScalarOnlySource scalar_source(dist_source);
  const std::size_t batches = flags.quick ? 4000 : 20000;
  std::vector<std::uint64_t> buf;
  const auto time_draws = [&](const SampleSource& src) {
    Rng rng(seed);
    src.sample_many(rng, q, buf);  // warm the lazy alias table
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      src.sample_many(rng, q, buf);
      sink += buf[0];
    }
    const double elapsed = bench::seconds_since(start);
    // Keep `sink` observable so the loop is not optimized away.
    if (sink == 0xFFFFFFFFFFFFFFFFULL) std::cout << "";
    return static_cast<double>(batches) * q / elapsed;
  };
  const double scalar_sps = time_draws(scalar_source);
  const double batched_sps = time_draws(dist_source);

  Table draw_table({"path", "samples/sec"});
  draw_table.add_row({std::string("per-sample virtual"), scalar_sps});
  draw_table.add_row({std::string("batched sample_many"), batched_sps});
  draw_table.print(std::cout, "drawing throughput (zipf alias sampler)");
  std::cout << "batched / per-sample = "
            << format_double(batched_sps / scalar_sps) << "x\n";

  // --- Part 3: adaptive-vs-fixed trial budgets in a q* search. -------------
  // Representative search: the minimal per-trial sample budget q at which a
  // majority-amplified centralized collision tester clears the 2/3 bar on
  // (n=4096, eps=1.0). Majority amplification (repeat the tester, take the
  // majority vote — the standard success-amplification step) steepens the
  // success curve in q, which is what makes the searched threshold
  // well-defined; it is also exactly the regime where early stopping pays,
  // because most rungs and midpoints sit far from the bar. The search
  // computes only the probes it consults, so the trial totals below are the
  // consulted probes' at any pool size; both searches run on a serial pool
  // so their timings compare trial budgets, not thread scheduling.
  const std::uint64_t search_n = 4096;
  const double search_eps =
      static_cast<double>(cli.get_int("search-eps100", 100)) / 100.0;
  const auto search_trials = static_cast<std::size_t>(
      cli.get_int("search-trials", flags.quick ? 400 : 1600));
  const auto search_reps =
      static_cast<unsigned>(cli.get_int("search-reps", 15));
  const auto search_seed = derive_seed(seed, 0xADA);
  const auto s_uniform = workloads::uniform_factory(search_n);
  const auto s_far = workloads::paninski_far_factory(search_n, search_eps);
  ThreadPool search_pool(1);

  const auto collision_run = [&](std::uint64_t qq) -> TesterRun {
    return [reps = search_reps,
            tester = CentralizedCollisionTester(
                search_n, search_eps, static_cast<unsigned>(qq))](
               const SampleSource& src, Rng& rng) {
      unsigned accepts = 0;
      for (unsigned r = 0; r < reps; ++r) {
        if (tester.run(src, rng)) ++accepts;
      }
      return 2 * accepts > reps;
    };
  };
  // The bracket probe gets the SAME budget with early stopping on top: its
  // trials are a prefix of the full probe's (same per-trial seeds), and its
  // certificates agree with the full-budget verdict (provably for the
  // deterministic seal, within delta for the Wilson one) — so the bracketed
  // search replays the fixed search's decisions and lands on the same
  // minimum, only cheaper.
  AdaptiveProbeConfig acfg;
  std::uint64_t fixed_trials_total = 0;
  std::uint64_t adaptive_trials_total = 0;
  const ProbeFn fixed_probe = [&](std::uint64_t qq) {
    const ProbeResult r =
        probe_success(collision_run(qq), s_uniform, s_far, search_trials,
                      derive_seed(search_seed, qq), search_pool);
    fixed_trials_total += r.trials;
    return r;
  };
  const ProbeFn full_probe = [&](std::uint64_t qq) {
    const ProbeResult r =
        probe_success(collision_run(qq), s_uniform, s_far, search_trials,
                      derive_seed(search_seed, qq), search_pool);
    adaptive_trials_total += r.trials;
    return r;
  };
  const ProbeFn bracket_probe = [&](std::uint64_t qq) {
    const ProbeResult r =
        probe_success(collision_run(qq), s_uniform, s_far, search_trials,
                      derive_seed(search_seed, qq), search_pool, acfg);
    adaptive_trials_total += r.trials;
    return r;
  };

  MinSearchConfig scfg;
  scfg.lo = 2;
  scfg.hi = 1ULL << 18;
  scfg.trials = search_trials;
  scfg.seed = search_seed;
  scfg.full_budget_width = 4;

  auto search_start = std::chrono::steady_clock::now();
  const MinSearchResult fixed_search =
      find_min_param(fixed_probe, scfg, search_pool);
  const double fixed_seconds = bench::seconds_since(search_start);

  MinSearchConfig bracketed_cfg = scfg;
  bracketed_cfg.bracket_probe = bracket_probe;
  search_start = std::chrono::steady_clock::now();
  const MinSearchResult adaptive_search =
      find_min_param(full_probe, bracketed_cfg, search_pool);
  const double adaptive_seconds = bench::seconds_since(search_start);

  if (cli.get_int("search-debug", 0) != 0) {
    for (const auto& [value, r] : adaptive_search.probes) {
      std::cerr << "probe q=" << value << " trials=" << r.trials
                << " u=" << r.uniform_accept_rate
                << " f=" << r.far_reject_rate
                << " stop=" << static_cast<int>(r.stop) << "\n";
    }
  }
  const bool same_minimum =
      fixed_search.found && adaptive_search.found &&
      fixed_search.minimum == adaptive_search.minimum;
  // Final-probe verdicts: the last consulted probe at the returned minimum
  // must pass in both searches (the adaptive one is the full-budget
  // confirmation, so the verdicts are directly comparable).
  const auto final_verdict = [](const MinSearchResult& s) {
    for (auto it = s.probes.rbegin(); it != s.probes.rend(); ++it) {
      if (it->first == s.minimum) return it->second.passes();
    }
    return false;
  };
  const bool same_final_verdict =
      final_verdict(fixed_search) == final_verdict(adaptive_search);
  const double trial_reduction =
      static_cast<double>(fixed_trials_total) /
      static_cast<double>(std::max<std::uint64_t>(adaptive_trials_total, 1));

  Table search_table({"search", "q*", "probes", "total trials", "seconds"});
  search_table.add_row(
      {std::string("fixed budget"),
       static_cast<std::int64_t>(fixed_search.minimum),
       static_cast<std::int64_t>(fixed_search.probes.size()),
       static_cast<std::int64_t>(fixed_trials_total), fixed_seconds});
  search_table.add_row(
      {std::string("adaptive bracket"),
       static_cast<std::int64_t>(adaptive_search.minimum),
       static_cast<std::int64_t>(adaptive_search.probes.size()),
       static_cast<std::int64_t>(adaptive_trials_total), adaptive_seconds});
  search_table.print(std::cout, "find_min_param: fixed vs adaptive bracket");
  std::cout << "trial reduction = " << format_double(trial_reduction)
            << "x, identical minimum: " << (same_minimum ? "YES" : "NO")
            << ", same final verdict: " << (same_final_verdict ? "YES" : "NO")
            << "\n";

  // --- Part 4: persistent probe cache hit rate. ----------------------------
  // The same adaptive search, twice, against one on-disk cache: the second
  // run must be (nearly) all hits and reproduce every ProbeResult bit for
  // bit. The cache dir lives under the bench output dir and is wiped first,
  // so runs are self-contained.
  const std::string cache_dir = bench::output_dir() + "/probe_cache_bench";
  std::filesystem::remove_all(cache_dir);
  const auto cached_search = [&](ProbeCache& cache) {
    ProbeKey base;
    base.workload = "paninski:n=" + std::to_string(search_n) +
                    ":eps=" + format_double(search_eps);
    base.tester = "collision";
    // One cached probe per flavor; no adaptive config = full budget.
    const auto cached = [&, base](std::optional<AdaptiveProbeConfig> adaptive) {
      return ProbeFn([&, base, adaptive](std::uint64_t qq) {
        const std::uint64_t pseed = derive_seed(search_seed, qq);
        return cache.get_or_compute(
            probe_key(base, qq, search_trials, pseed, adaptive), [&] {
              return probe_success(collision_run(qq), s_uniform, s_far,
                                   search_trials, pseed, search_pool,
                                   adaptive);
            });
      });
    };
    MinSearchConfig cached_cfg = scfg;
    cached_cfg.bracket_probe = cached(acfg);
    return find_min_param(cached(std::nullopt), cached_cfg, search_pool);
  };

  double cache_hit_rate = 0.0;
  bool cache_bit_identical = false;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  {
    ProbeCache cold(cache_dir, CacheMode::kReadWrite);
    search_start = std::chrono::steady_clock::now();
    const MinSearchResult first = cached_search(cold);
    cold_seconds = bench::seconds_since(search_start);
    // Fresh instance over the same directory = the next process run.
    ProbeCache warm(cache_dir, CacheMode::kReadWrite);
    search_start = std::chrono::steady_clock::now();
    const MinSearchResult second = cached_search(warm);
    warm_seconds = bench::seconds_since(search_start);
    const CacheStats ws = warm.stats();
    cache_hit_rate = static_cast<double>(ws.hits) /
                     static_cast<double>(std::max<std::uint64_t>(
                         ws.hits + ws.misses, 1));
    cache_bit_identical =
        first.minimum == second.minimum &&
        first.probes.size() == second.probes.size();
    if (cache_bit_identical) {
      for (std::size_t i = 0; i < first.probes.size(); ++i) {
        if (first.probes[i].first != second.probes[i].first ||
            !probe_equal(first.probes[i].second, second.probes[i].second)) {
          cache_bit_identical = false;
          break;
        }
      }
    }
  }
  std::cout << "probe cache: hit rate " << format_double(100.0 * cache_hit_rate)
            << "% on second run (" << format_double(cold_seconds) << "s cold, "
            << format_double(warm_seconds) << "s warm), bit-identical: "
            << (cache_bit_identical ? "YES" : "NO") << "\n";

  // --- Emit BENCH_harness.json. --------------------------------------------
  std::string throughput = "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    throughput += "    {\"threads\": " + bench::json_u64(points[i].threads) +
                  ", \"trials_per_sec\": " +
                  bench::json_num(points[i].trials_per_sec) +
                  ", \"speedup_vs_1\": " + bench::json_num(points[i].speedup) +
                  "}";
    throughput += i + 1 < points.size() ? ",\n" : "\n";
  }
  throughput += "  ]";
  const std::string path = bench::emit_bench_json(
      "harness", bench::resolved_env(),
      {{"probe", "{\"n\": " + bench::json_u64(n) +
                     ", \"k\": " + bench::json_u64(k) +
                     ", \"q\": " + bench::json_u64(q) +
                     ", \"trials\": " + bench::json_u64(trials) + "}"},
       {"bit_identical", bench::json_bool(bit_identical)},
       {"probe_throughput", throughput},
       {"sampling",
        "{\"per_sample_sps\": " + bench::json_num(scalar_sps) +
            ", \"batched_sps\": " + bench::json_num(batched_sps) +
            ", \"batched_speedup\": " +
            bench::json_num(batched_sps / scalar_sps) + "}"},
       {"adaptive_search",
        "{\"n\": " + bench::json_u64(search_n) +
            ", \"eps\": " + bench::json_num(search_eps) +
            ", \"majority_reps\": " + bench::json_u64(search_reps) +
            ", \"trials\": " + bench::json_u64(search_trials) +
            ", \"bracket_budget\": " + bench::json_u64(search_trials) +
            ", \"fixed_minimum\": " + bench::json_u64(fixed_search.minimum) +
            ", \"adaptive_minimum\": " +
            bench::json_u64(adaptive_search.minimum) +
            ", \"fixed_trials_total\": " + bench::json_u64(fixed_trials_total) +
            ", \"adaptive_trials_total\": " +
            bench::json_u64(adaptive_trials_total) +
            ", \"trial_reduction\": " + bench::json_num(trial_reduction) +
            ", \"fixed_seconds\": " + bench::json_num(fixed_seconds) +
            ", \"adaptive_seconds\": " + bench::json_num(adaptive_seconds) +
            ", \"identical_minimum\": " + bench::json_bool(same_minimum) +
            ", \"same_final_verdict\": " + bench::json_bool(same_final_verdict) +
            "}"},
       {"probe_cache",
        "{\"hit_rate\": " + bench::json_num(cache_hit_rate) +
            ", \"cold_seconds\": " + bench::json_num(cold_seconds) +
            ", \"warm_seconds\": " + bench::json_num(warm_seconds) +
            ", \"bit_identical\": " + bench::json_bool(cache_bit_identical) +
            "}"}});
  if (!path.empty()) std::cout << "wrote " << path << "\n";

  // Quick mode halves the probe budget, which also halves how much an early
  // stop can save, so the 3x bar applies to the default configuration only;
  // the agreement and cache criteria hold in both modes.
  const bool search_ok = same_minimum && same_final_verdict &&
                         (flags.quick || trial_reduction >= 3.0) &&
                         cache_hit_rate >= 0.9 && cache_bit_identical;
  std::cout << "adaptive/cache acceptance (" << (flags.quick ? "" : ">=3x trials, ")
            << "identical minimum, >=90% hits, bit-identical): "
            << (search_ok ? "YES" : "NO") << "\n";
  return bit_identical && search_ok ? 0 : 1;
}
