// Shared plumbing for the experiment binaries: banner printing, CSV output
// location, the measured-vs-predicted table assembly used by every
// experiment, the stamped BENCH_*.json emitter, the micro benches' timer,
// the one-line sweep summary, the failed-search check and the guard that
// turns a typed error into exit status 2. Each bench prints the same kind
// of artifact: a table with one row per sweep point carrying the measured
// minimum resource, the paper's predicted curve, and the fitted
// constant/slope comparison. Every sweep bench runs the engine's one
// default configuration (warm, no cache session), so its table is a
// function of its flags and seed alone.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "stats/harness.hpp"
#include "stats/shape.hpp"
#include "stats/sweep.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
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
/// "env" stamp: the global pool's size and the host's SIMD tier — resolved
/// values, not the raw DUTI_THREADS string.
[[nodiscard]] inline JsonFields resolved_env() {
  return {{"threads", json_u64(ThreadPool::global().size())},
          {"simd", json_str(simd_level_name(simd_active_level()))}};
}

/// `trials` unless it is zero; zero throws InvalidArgument naming --trials.
/// A success rate over zero trials is undefined, and a search over it
/// would print a table of failed rows and exit 0.
[[nodiscard]] inline std::size_t positive_trials(std::size_t trials) {
  require(trials >= 1, "--trials must be >= 1, got " + std::to_string(trials));
  return trials;
}

/// Reads --quick for a bench whose defaults are already quick and ignores
/// it, so Cli::reject_unread accepts it and `<bench> --quick` runs every
/// bench of the table set.
inline void accept_quick(const Cli& cli) { (void)cli.get_bool("quick", false); }

/// Stock flags every sweep bench accepts.
struct CommonFlags {
  std::size_t trials;
  std::uint64_t seed;
  bool quick;

  explicit CommonFlags(const Cli& cli)
      : trials(positive_trials(cli.get_uint<std::size_t>("trials", 150))),
        seed(cli.get_uint<std::uint64_t>("seed", 1)),
        quick(cli.get_bool("quick", false)) {}
};

/// One-line machine-diffable summary of a finished sweep: fingerprint plus
/// the consulted/computed work ledger. Runs at different DUTI_THREADS
/// settings must print the same fingerprint. The benches open no cache
/// session, so cache_hits is always 0.
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

/// Names each point of `sweeps` whose search found no passing value, by its
/// label, and returns how many there are. A failed search drops its table
/// row, so a verdict over the rows that are left would pass or fail
/// vacuously: a bench with a failed search prints not_judged instead.
template <typename... Sweeps>
[[nodiscard]] std::size_t failed_searches(const Sweeps&... sweeps) {
  std::size_t failed = 0;
  for (const SweepResult* sweep : {&sweeps...})
    for (const SweepPointResult& point : sweep->points)
      if (!point.found) {
        std::cout << point.label << ": search failed\n";
        ++failed;
      }
  return failed;
}

/// Prints each of `verdicts` as "<verdict>: not judged (<failed> failed
/// search[es])" and returns the bench's exit status, 1.
inline int not_judged(std::initializer_list<const char*> verdicts,
                      std::size_t failed) {
  for (const char* verdict : verdicts)
    std::cout << verdict << ": not judged (" << failed << " failed search"
              << (failed == 1 ? "" : "es") << ")\n";
  return 1;
}

/// The handler of every bench main's function-try-block: a typed library
/// error (a flag that does not parse, an invalid configuration) prints
/// "<bench>: <message>" on stderr and exits 2, where it would otherwise end
/// the process in std::terminate.
inline int error_exit(int argc, char** argv, const Error& e) {
  const std::string bench =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "bench";
  std::cerr << bench << ": " << e.what() << "\n";
  return 2;
}

}  // namespace duti::bench
