// The three benchmark workloads — qsearch, sweeps and moments — plus the
// rw-cache replay check and reference recording. Each workload is a fixed
// operation list built from the workload seed; a pass runs the list once,
// closed loop, one operation at a time, and checks every operation against
// the committed references.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "refs.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Every span and leaf name the traced run records.
[[nodiscard]] std::vector<std::string> span_names();

/// Sweep families in canonical order (e1, e2_and, ..., e9).
[[nodiscard]] std::vector<std::string> family_names();

struct FamilyPass {
  double wall_s = 0.0;
  std::uint64_t trials_computed = 0;
  std::uint64_t trials_consulted = 0;
};

/// What one pass did. Counts are exact; `digest` hashes every output the
/// references pin (minima, audit trails, fingerprints, E7 values), so a
/// traced pass can be checked against an untraced one.
struct PassStats {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t trials_computed = 0;
  // search_p50_s samples: each search's latency (qsearch), or the pass's
  // mean operation latency, wall_s / ops (sweeps, moments), whose families
  // and rows differ in cost so much that a median over them jumps between
  // cost tiers.
  std::vector<double> latencies_s;
  std::uint64_t digest = 0;
  std::vector<std::string> problems;  // one line per failed check

  // qsearch
  std::uint64_t searches = 0;
  std::uint64_t probes_computed = 0;
  std::uint64_t probes_consulted = 0;
  std::uint64_t trials_consulted = 0;
  // sweeps
  std::map<std::string, FamilyPass> families;
  double hint_error_sum = 0.0;
  std::uint64_t hint_points = 0;
  // moments
  double subset_checks = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Passes per run for a run of `seconds` (a fixed function, so the
  /// operation count repeats exactly).
  [[nodiscard]] virtual std::size_t passes(double seconds) const = 0;
  /// One untimed operation outside the operation list; returns false (with
  /// a problem line) if it fails its reference check.
  virtual bool warmup(duti::ThreadPool& pool, const References& refs,
                      std::vector<std::string>& problems) = 0;
  /// Run the operation list once; traced when `tracer` is non-null.
  [[nodiscard]] virtual PassStats run_pass(duti::ThreadPool& pool,
                                           const References& refs,
                                           Tracer* tracer) = 0;
};

/// "qsearch", "sweeps" or "moments"; nullptr for anything else.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      double seconds);

/// The untimed rw-cache replay of the sweeps tables.
struct ReplayStats {
  double open_s = 0.0;    // second session's journal load
  double replay_s = 0.0;  // second pass over every family
  std::uint64_t inserts = 0;
  std::uint64_t hits = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t failed_points = 0;  // points of families that threw
  std::vector<std::string> failed_families;
  bool ok = true;  // false on an unexpected failure or mismatch
  std::vector<std::string> problems;
};

/// Run every sweep family through a fresh rw ProbeCache session in `dir`,
/// then again from that journal with a fresh session and a cleared memo.
/// Fingerprints must equal the references and the second pass must compute
/// no trials. `dir` is created and removed.
[[nodiscard]] ReplayStats run_replay(duti::ThreadPool& pool,
                                     const References& refs,
                                     const std::string& dir);

/// Compute every reference (all pool searches, the warm-up operations, the
/// sweep tables, the E7 grid and the replay's failing families).
[[nodiscard]] References record_references(duti::ThreadPool& pool,
                                           const std::string& scratch_dir);

}  // namespace perfbench
