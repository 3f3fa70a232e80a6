#include "testers/calibration.hpp"

#include <algorithm>
#include <cmath>

#include "sim/sample_source.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

namespace {
// Trials per chunk of the calibration loop: the default 4000 trials cut
// into 16 chunks, whatever the pool.
constexpr std::size_t kCalibrationGrain = 256;
}  // namespace

std::size_t calibration_trials(std::size_t requested, std::uint64_t players) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(4000, 30ULL * players);
}

std::vector<double> calibrate_on_uniform(std::string_view statistic,
                                         std::uint64_t n,
                                         std::span<const unsigned> qs,
                                         std::size_t trials, Rng& calib_rng,
                                         const CalibrationSummary& summarize,
                                         ThreadPool& pool) {
  require(trials >= 1, "calibrate_on_uniform: need at least one trial");
  std::string key(statistic);
  key += "|n=" + std::to_string(n) + "|qs=";
  for (const unsigned q : qs) key += std::to_string(q) + ",";
  key += "|t=" + std::to_string(trials) + "|rng=";
  for (const std::uint64_t word : calib_rng.state()) {
    key += std::to_string(word) + ".";
  }

  CalibMemo& memo = CalibMemo::global();
  if (std::optional<CalibMemo::Entry> hit = memo.find(key)) {
    // Leave the stream exactly where the loop below would have.
    calib_rng.set_state(hit->exit);
    return std::move(hit->values);
  }
  // Computed outside the memo lock, so the point-parallel sweeps'
  // constructions do not serialize on it. Two threads racing on one key
  // compute, and store, the same entry. Each trial is q uniform draws, so
  // the trial loop splits across the pool and still sees the serial
  // stream's draws in the serial order (DESIGN.md §7).
  const UniformSource uniform(n);
  std::vector<std::uint64_t> pairs(trials);
  std::vector<double> values;
  for (const unsigned q : qs) {
    parallel_for_stream(
        pool, trials, kCalibrationGrain, q, calib_rng,
        [&](std::size_t begin, std::size_t end, Rng& stream) {
          std::vector<std::uint64_t> samples;
          for (std::size_t t = begin; t < end; ++t) {
            uniform.sample_many(stream, q, samples);
            pairs[t] = collision_pairs(samples, n);
          }
        });
    const std::vector<double> player = summarize(q, pairs);
    values.insert(values.end(), player.begin(), player.end());
  }
  memo.store(key, {values, calib_rng.state()});
  return values;
}

std::vector<double> uniform_reject_rates(std::uint64_t n,
                                         std::span<const unsigned> qs,
                                         std::size_t trials, Rng& calib_rng,
                                         ThreadPool& pool) {
  return calibrate_on_uniform(
      "rejects", n, qs, trials, calib_rng,
      [n](unsigned q, std::span<const std::uint64_t> pairs) {
        const double local_t =
            expected_collision_pairs_uniform(static_cast<double>(n), q);
        std::uint64_t rejects = 0;
        for (const std::uint64_t p : pairs) {
          if (static_cast<double>(p) > local_t) ++rejects;
        }
        return std::vector<double>{static_cast<double>(rejects) /
                                   static_cast<double>(pairs.size())};
      },
      pool);
}

std::uint64_t calibrated_referee_threshold(std::uint64_t players,
                                           double p_u) {
  const double m = static_cast<double>(players);
  const double sd = std::sqrt(std::max(1e-12, m * p_u * (1.0 - p_u)));
  return static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(m * p_u + kRefereeZ * sd + 1e-9)));
}

CalibMemo& CalibMemo::global() {
  static CalibMemo memo;
  return memo;
}

std::optional<CalibMemo::Entry> CalibMemo::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void CalibMemo::store(const std::string& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.insert_or_assign(key, std::move(entry));
}

CalibMemo::Stats CalibMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CalibMemo::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

void CalibMemo::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace duti
