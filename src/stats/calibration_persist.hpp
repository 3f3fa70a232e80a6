// Cross-process persistence for the testers' calibration memo
// (testers/calibration.hpp), riding on the ProbeCache journal so warm
// reruns of a sweep skip referee calibration entirely.
//
// The memo's u64 payloads are shoehorned into ProbeResult records: the
// logical payload is prefixed with a length word and chunked 6 words per
// record into the slots the journal stores verbatim (trials, budget, and
// the four abort tallies; both success tallies stay 0 and stop stays
// kExhausted, so the Wilson check of a journal reload can never reject a
// payload word). Records are keyed ProbeKey{workload = "calib:" + memo id,
// tester = "calib", flavor = "calib2", param = chunk index, trials = 0,
// seed = FNV-1a(id)} — the workload string carries the FULL memo id, and
// ProbeCache lookups verify full keys, so distinct calibrations can never
// collide. The rate fields a hit rebuilds from these tallies are
// meaningless, but nothing reads them: the memo consumes only the raw
// integer slots.
//
// Installation is the testers -> stats dependency inversion: this layer
// registers load/store hooks with CalibMemo::global(). ProbeCache::global()
// self-installs when the env-configured cache is enabled; run_sweep
// installs its session cache for the duration of the sweep.
#pragma once

#include "stats/probe_cache.hpp"

namespace duti {

/// Register `cache` as the calibration memo's persistence backend
/// (replacing any previous backend). Stores go through the cache's usual
/// mode rules (dropped unless kReadWrite); loads work at kReadOnly too.
/// `cache` must outlive the hooks (uninstall before destroying it).
void install_calibration_persistence(ProbeCache& cache);

/// Detach the persistence backend (in-memory memoization keeps working).
void uninstall_calibration_persistence();

}  // namespace duti
