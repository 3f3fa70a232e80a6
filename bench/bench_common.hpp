// Shared plumbing for the experiment binaries: banner printing, CSV output
// location, the measured-vs-predicted table assembly used by every
// experiment, the stamped BENCH_*.json emitter, the micro benches' timer,
// and the sweep-engine glue (engine config from CLI flags + the one-line
// sweep summary). Each bench prints the same kind of artifact: a table with
// one row per sweep point carrying the measured minimum resource, the
// paper's predicted curve, and the fitted constant/slope comparison.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "stats/harness.hpp"
#include "stats/probe_cache.hpp"
#include "stats/shape.hpp"
#include "stats/sweep.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace duti::bench {

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n=================================================================\n"
            << id << "\n" << claim
            << "\n=================================================================\n";
}

/// Print the shape verdict under a finished sweep table.
inline void print_shape(const std::vector<double>& x,
                        const std::vector<double>& measured,
                        const std::vector<double>& predicted,
                        const std::string& what) {
  const auto cmp = compare_shapes(x, measured, predicted);
  std::cout << "shape check (" << what << "):\n"
            << "  fitted constant c      = " << format_double(cmp.fitted_constant)
            << "\n  measured log-log slope = " << format_double(cmp.measured_slope)
            << "\n  predicted slope        = " << format_double(cmp.predicted_slope)
            << "\n  slope gap              = " << format_double(cmp.slope_gap)
            << "\n  max ratio deviation    = "
            << format_double(cmp.max_ratio_deviation) << "\n";
}

/// Seconds on the monotonic clock since `start`: the one timer the micro
/// benches share. Timings are reported, never fed into a ProbeResult.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  // duti-lint: allow(no-wall-clock) -- bench timing; never feeds a result
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start).count();
}

/// The configuration a bench actually ran under, for emit_bench_json's
/// "env" stamp: the global pool's size, the active SIMD level and the global
/// probe cache's mode — resolved values, not the raw DUTI_* strings.
[[nodiscard]] inline JsonFields resolved_env() {
  const char* cache = "off";
  switch (ProbeCache::global().mode()) {
    case CacheMode::kOff: break;
    case CacheMode::kReadOnly: cache = "readonly"; break;
    case CacheMode::kReadWrite: cache = "rw"; break;
  }
  return {{"threads", json_u64(ThreadPool::global().size())},
          {"simd", json_str(simd_level_name(simd_active_level()))},
          {"cache", json_str(cache)}};
}

/// Stock flags every sweep bench accepts.
struct CommonFlags {
  std::int64_t trials;
  std::int64_t seed;
  bool quick;

  explicit CommonFlags(const Cli& cli)
      : trials(cli.get_int("trials", 150)),
        seed(cli.get_int("seed", 1)),
        quick(cli.get_bool("quick", false)) {}
};

// --- Sweep-engine glue -----------------------------------------------------

/// Engine config for a sweep bench: warm mode (adaptive bracket + shared
/// cache session, with anchor-interpolated hints recorded) by default,
/// `--sweep=cold` forces the cold full-budget baseline. Both modes produce
/// bit-identical minima and verdicts — cold exists to prove exactly that.
[[nodiscard]] inline SweepEngineConfig sweep_engine_config(const Cli& cli) {
  SweepEngineConfig cfg;
  cfg.warm_start = cli.get_string("sweep", "warm") != "cold";
  cfg.cache = &ProbeCache::global();
  return cfg;
}

/// One-line machine-diffable summary of a finished sweep: fingerprint plus
/// the consulted/computed work ledger. Runs at different DUTI_THREADS or
/// DUTI_CACHE settings must print the same fingerprint.
inline void print_sweep_summary(const std::string& name,
                                const SweepResult& sweep) {
  std::printf(
      "sweep[%s]: fingerprint=%016llx points=%zu probes=%llu "
      "trials_consulted=%llu trials_computed=%llu cache_hits=%llu\n",
      name.c_str(),
      static_cast<unsigned long long>(sweep.fingerprint),
      sweep.points.size(),
      static_cast<unsigned long long>(sweep.probes_consulted),
      static_cast<unsigned long long>(sweep.trials_consulted),
      static_cast<unsigned long long>(sweep.trials_computed),
      static_cast<unsigned long long>(sweep.cache.hits));
}

}  // namespace duti::bench
