// The batched protocol-plane executor (DESIGN.md §14): runs protocol
// trials for collision-statistic players through reusable flat buffers,
// with zero heap allocations per trial in steady state.
//
// The legacy SimultaneousProtocol path materializes a fresh Player (heap)
// per player per trial and counts collisions by sorting each player's
// sample vector. Every tester in this repository is a STATELESS function
// of the player's exact pair-collision count, so the batched plane
// resolves one vote functor per tester (once, at construction) and
// replaces the sort with a sparse tally over a per-worker counts plane:
//
//   pairs += plane[s]++  over the q samples, then plane[s] = 0 over the
//   same samples — an exact integer count (sum over cells of C(c,2)),
//   O(q) with no sort and no allocation, equal to collision_pairs() on
//   every input. Domains too large for a plane fall back to an in-place
//   sort of the reused sample buffer (same integer count).
//
// Bit-identity contract: the per-sample plane derives player streams
// exactly like the legacy runner (one run-rng draw per player, in order),
// draws through the same SampleSource::sample_many, and feeds the same
// post-sampling player RNG to the vote — so votes, messages, and referee
// verdicts are bit-identical to SimultaneousProtocol at any DUTI_THREADS
// and DUTI_SIMD setting (enforced by tests/test_protocol_batch.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/decision_rule.hpp"
#include "sim/player.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

/// Largest domain for which the per-sample plane tallies into a flat
/// counts plane; above this it sorts the (reused) sample buffer instead.
/// The plane is per-worker memory: 2^22 cells = 32 MiB ceiling.
inline constexpr std::uint64_t kMaxTallyPlaneDomain = 1ULL << 22;

/// Exact pair-collision count of `samples` drawn from a domain of size
/// `domain`: the batched plane's tally-or-sort statistic, equal to
/// testers' collision_pairs() on every input, allocation-free in steady
/// state (per-thread buffers). Exposed so the testers' uniform calibration
/// loop shares the executor's exact statistic.
[[nodiscard]] std::uint64_t tallied_collision_pairs(
    std::span<const std::uint64_t> samples, std::uint64_t domain);

class ProtocolBatchExecutor {
 public:
  /// Player j's message from its exact pair-collision count. `rng` is the
  /// player's private post-sampling stream (identical to what a legacy
  /// Player::decide would see). Resolved ONCE per tester — must be
  /// stateless (safe for concurrent trials across harness workers).
  using Vote =
      std::function<Message(unsigned j, std::uint64_t pairs, Rng& rng)>;

  /// Symmetric: every player draws `q` samples.
  ProtocolBatchExecutor(unsigned k, unsigned q, Vote vote,
                        unsigned message_width = 1);

  /// Asymmetric: player j draws `qs[j]` samples (Section 6.2 rates).
  explicit ProtocolBatchExecutor(std::vector<unsigned> qs, Vote vote,
                                 unsigned message_width = 1);

  /// One trial into a caller-owned buffer: messages.resize(k) once, then
  /// steady-state trials allocate nothing.
  void collect(const SampleSource& source, Rng& rng,
               std::vector<Message>& messages) const;

  /// One trial into a per-worker thread-local buffer (valid until the same
  /// worker's next call) — the zero-setup entry point for tester::run.
  [[nodiscard]] const std::vector<Message>& collect_tls(
      const SampleSource& source, Rng& rng) const;

  /// Full trial with caller-owned planes: collect, extract low-bit votes,
  /// apply the referee rule. true = accept.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng,
                         const DecisionRule& rule,
                         std::vector<Message>& messages,
                         std::vector<std::uint8_t>& votes) const;

  /// Full trial on per-worker thread-local planes.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng,
                         const DecisionRule& rule) const;

 private:
  std::vector<unsigned> qs_;
  Vote vote_;
  unsigned width_ = 1;
};

}  // namespace duti
