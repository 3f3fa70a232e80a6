// Referee calibration on uniform input (DESIGN.md §14). Every calibrated
// tester — threshold, robust, tree, multibit and asymmetric — takes its
// referee bar from one simulated quantity: the exact pair-collision count
// of a single player's q uniform samples on a domain of size n, taken by
// the same collision_pairs the protocol plane votes on. The tester knows
// n and q, so this is information the protocol legitimately has.
//
// calibrate_on_uniform is the one loop that simulates it, and the only
// client of the process-wide CalibMemo: sweeps, dual adaptive/full probes
// and warm-start reruns rebuild the same tester many times over, and each
// rebuild after the first is a memo hit.
//
// Deterministic-RNG accounting is preserved exactly: the memo key embeds
// the calibration RNG's ENTRY state, and the entry records its EXIT state,
// which a hit restores — so a memoized construction leaves the caller's
// RNG (and therefore every downstream draw) bit-identical to a fresh one.
// Keys embed the RESOLVED trial count, so `calib_trials = 0 /* auto */`
// and the equivalent explicit count share an entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace duti {

/// The calibration trial count for `requested` (0 = auto). Auto resolves
/// to max(4000, 30 * players), so the referee threshold's error stays below
/// the binomial noise over `players` votes.
[[nodiscard]] std::size_t calibration_trials(std::size_t requested,
                                             std::uint64_t players);

/// One player's calibration summary: from its sample count q and the pair
/// counts of its uniform draws (in draw order), the values the tester
/// keeps.
using CalibrationSummary = std::function<std::vector<double>(
    unsigned q, std::span<const std::uint64_t> pairs)>;

/// For each player j in order, draws `trials` sets of qs[j] samples from
/// UniformSource(n) through `calib_rng`, takes each set's exact pair count
/// (collision_pairs, the statistic the protocol plane votes on), and
/// appends summarize(qs[j], pairs) to the result. The trials run on `pool`
/// (parallel_for_stream), each seeing exactly the draws of the serial loop
/// over one stream, so values and exit state are the same at any thread
/// count. Memoized in CalibMemo::global() under (statistic, n, qs, trials,
/// calib_rng's entry state): `statistic` must name every other input that
/// `summarize` reads. Throws InvalidArgument for zero trials, before any
/// draw.
[[nodiscard]] std::vector<double> calibrate_on_uniform(
    std::string_view statistic, std::uint64_t n, std::span<const unsigned> qs,
    std::size_t trials, Rng& calib_rng, const CalibrationSummary& summarize,
    ThreadPool& pool = ThreadPool::global());

/// Per player, the rate at which its pair count on qs[j] uniform samples
/// strictly exceeds its uniform mean C(qs[j], 2) / n — the collision
/// voter's false-alarm rate — over `trials` draws each.
[[nodiscard]] std::vector<double> uniform_reject_rates(
    std::uint64_t n, std::span<const unsigned> qs, std::size_t trials,
    Rng& calib_rng, ThreadPool& pool = ThreadPool::global());

/// Standard deviations above the uniform mean at which every calibrated
/// referee bar sits (the threshold, quorum, median-of-groups and trimmed
/// referees).
inline constexpr double kRefereeZ = 1.0;

/// The referee bar for `players` one-bit voters that each reject uniform
/// input with probability p_u: max(1, ceil(mean + kRefereeZ sd + 1e-9)) for
/// the binomial mean and standard deviation of their rejection count.
[[nodiscard]] std::uint64_t calibrated_referee_threshold(
    std::uint64_t players, double p_u);

/// The process-wide calibration memo behind calibrate_on_uniform.
class CalibMemo {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  // full recomputations
  };

  [[nodiscard]] static CalibMemo& global();

  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Drop all memoized entries (keeps stats).
  void clear();

 private:
  friend std::vector<double> calibrate_on_uniform(
      std::string_view statistic, std::uint64_t n,
      std::span<const unsigned> qs, std::size_t trials, Rng& calib_rng,
      const CalibrationSummary& summarize, ThreadPool& pool);

  struct Entry {
    std::vector<double> values;
    Rng::State exit;  // the calibration stream's state after the loop
  };

  [[nodiscard]] std::optional<Entry> find(const std::string& key);
  void store(const std::string& key, Entry entry);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  Stats stats_;
};

}  // namespace duti
