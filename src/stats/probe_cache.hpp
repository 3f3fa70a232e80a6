// Persistent, content-addressed cache of ProbeResults (DESIGN.md section 8).
//
// A probe is a deterministic function of (workload identity, tester
// identity, searched parameter value, trial budget, seed, probe flavor,
// engine version): re-running a bench re-runs the exact same probes. The
// cache memoizes them across process runs, keyed by a fingerprint of that
// tuple, storing ONLY the integer tallies — every derived field is rebuilt
// through probe_result_from_tallies, so a cache hit is bit-identical to the
// fresh computation.
//
// Storage is a crash-safe append journal under a cache directory. Each
// line frames one JSON record with an explicit length and FNV-1a checksum:
//
//   J1 <payload-len> <fnv64-hex> <json>
//
// so a SIGKILL mid-write can tear at most the final line, and the tear is
// DETECTED (length or checksum mismatch), never silently half-parsed.
// Corrupt, truncated or unframed lines are skipped on load and scrubbed by
// an atomic tmp-file+rename compaction. Writers serialize through a flock'd
// lockfile (`probes.lock`) — advisory locks die with the process, so a
// killed writer never wedges the cache. Lookups verify the FULL key
// fields, not just the fingerprint, so a fingerprint collision degrades to
// a miss rather than a wrong result.
//
// An unwritable or vanished cache directory is not an error: the cache
// warns once on stderr and degrades to kOff (probes just compute).
//
// A session is either off (no I/O) or read-write. The library keeps no
// session of its own and reads no environment for one: callers construct
// a session and pass it in (the tests and perfbench do; the benches open
// none).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "stats/harness.hpp"

namespace duti {

/// Bumped whenever probe semantics change (seed derivation, tally rules,
/// certificate logic, ...): stale cache entries from older engines then
/// miss instead of silently serving results the current engine would not
/// reproduce. Version 3 = the batched range engine with adaptive stopping.
inline constexpr std::uint64_t kProbeEngineVersion = 3;

/// Identity of one probe evaluation. `workload` and `tester` are canonical
/// human-readable id strings (workload name + every parameter that shapes
/// it); `flavor` distinguishes probe variants over the same tuple ("full"
/// vs the adaptive schedule). Every field participates in the fingerprint
/// and in the full-key equality check.
struct ProbeKey {
  std::string workload;  // workload id + params, e.g. "nuz:n=4096:eps=0.5"
  std::string tester;    // tester id, e.g. "collision"
  std::uint64_t param = 0;   // searched resource value (q, k, ...)
  std::uint64_t trials = 0;  // trial budget
  std::uint64_t seed = 0;
  std::string flavor = "full";
  std::uint64_t engine_version = kProbeEngineVersion;

  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] bool operator==(const ProbeKey& other) const = default;
};

enum class CacheMode : std::uint8_t { kOff = 0, kReadWrite = 1 };

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
};

class ProbeCache {
 public:
  /// Opens `dir`/probes.jsonl (creating `dir` if needed) and loads every
  /// intact record. kOff skips all I/O.
  ProbeCache(std::string dir, CacheMode mode);

  [[nodiscard]] CacheMode mode() const noexcept {
    return mode_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return mode() != CacheMode::kOff;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Full-key-verified lookup. Counts a hit or miss (no-op at kOff).
  [[nodiscard]] std::optional<ProbeResult> lookup(const ProbeKey& key);

  /// Record a result (no-op at kOff). Appends one framed journal line
  /// under the lockfile and updates the in-memory index. An I/O failure
  /// degrades the cache to kOff (warned once).
  void insert(const ProbeKey& key, const ProbeResult& result);

  /// lookup(), falling back to compute() + insert() on a miss. At kOff this
  /// is exactly compute(). Thread-safe; compute runs outside the lock.
  [[nodiscard]] ProbeResult get_or_compute(
      const ProbeKey& key, const std::function<ProbeResult()>& compute);

  [[nodiscard]] CacheStats stats() const;
  /// Number of loaded/inserted records (testing aid).
  [[nodiscard]] std::size_t size() const;

 private:
  struct Record {
    ProbeKey key;
    ProbeResult result;
  };
  void load();
  // Rewrite the journal as one framed record per cached key (merged with
  // any records other processes appended since load), via tmp file +
  // atomic rename under the lockfile.
  void compact_locked();                // requires mu_ held
  void degrade(const std::string& why);  // requires mu_ held

  std::string dir_;
  std::string path_;
  std::string lock_path_;
  std::atomic<CacheMode> mode_{CacheMode::kOff};
  bool warned_ = false;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::vector<Record>> index_;  // fingerprint -> records
  CacheStats stats_;
};

/// Verify one journal line's framing (`J1 <len> <fnv64-hex> <json>`) and
/// return the JSON payload, or nullopt if the line is unframed, torn, or
/// checksum-corrupt. Exposed so crash tests can audit a journal directly.
[[nodiscard]] std::optional<std::string> probe_journal_decode(
    const std::string& line);

/// Frame a JSON payload as a journal line (without the trailing newline).
[[nodiscard]] std::string probe_journal_frame(const std::string& json);

/// The cache key of one probe: `base`'s workload and tester identity plus
/// the searched value, trial budget, seed, and flavor — "full", or the
/// adaptive schedule spelled out
/// ("adaptive:b=32:target=0.6666666666666666:delta=0.001:min=0"). Every
/// cached probe builds its key here, so a probe computed on a miss is
/// always filed under the key that describes it.
[[nodiscard]] ProbeKey probe_key(const ProbeKey& base, std::uint64_t param,
                                 std::uint64_t trials, std::uint64_t seed,
                                 ProbeFlavor flavor = ProbeFlavor::kFull);

}  // namespace duti
