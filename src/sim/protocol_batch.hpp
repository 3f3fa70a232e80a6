// The protocol plane (Section 2; DESIGN.md §14): k players each draw q_j
// iid samples from the unknown distribution, send a short message to the
// referee, and the referee applies a decision rule to the received bits.
//
// Every tester in this repository is a STATELESS function of each player's
// exact pair-collision count, so the executor resolves one vote functor
// per tester (once, at construction) and runs trials through reusable
// per-worker flat buffers, with zero heap allocations per trial in steady
// state. The stream of player j is make_rng(rng(), j): one run-rng draw
// per player, in player order, so runs replay bit-for-bit at any
// DUTI_THREADS and DUTI_SIMD setting (pinned by the golden fingerprints
// and the test-local reference runner in tests/test_protocol_batch.cpp).
//
// The plane also owns the library's two collision statistics, the pair
// count and the distinct count, which the centralized and distributed
// testers share (a centralized tester counts pairs on one clique, the
// players on disjoint cliques). Both scatter into a per-worker counts
// plane:
//
//   pairs += plane[s]++  over the q samples, then plane[s] = 0 over the
//   same samples — an exact integer count (sum over cells of C(c,2)),
//   O(q) with no sort and no allocation. Domains too large for a plane
//   fall back to sorting a per-worker copy (same integer).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/decision_rule.hpp"
#include "sim/sample_source.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {

/// A player's message: `width` low bits of `bits` are meaningful.
struct Message {
  std::uint32_t bits = 0;
  unsigned width = 1;

  /// Convenience for 1-bit messages: 1 = "accept", 0 = "reject/alarm".
  [[nodiscard]] bool as_bit() const {
    require(width == 1, "Message::as_bit: not a 1-bit message");
    return (bits & 1U) != 0;
  }

  static Message bit(bool b) { return Message{b ? 1U : 0U, 1U}; }
};

/// Largest domain the collision statistics tally into a flat counts plane;
/// above this they sort a copy of the samples instead. The plane is
/// per-worker memory: 2^22 cells = 32 MiB ceiling.
inline constexpr std::uint64_t kMaxTallyPlaneDomain = 1ULL << 22;

/// Number of colliding pairs #{i<j : s_i = s_j} among `samples` drawn from
/// a domain of size `domain`. Allocation-free in steady state (per-thread
/// buffers). Throws InvalidArgument, naming the sample and the domain, if
/// a sample is >= domain.
[[nodiscard]] std::uint64_t collision_pairs(
    std::span<const std::uint64_t> samples, std::uint64_t domain);

/// Number of distinct values among `samples` drawn from a domain of size
/// `domain` (the statistic of Paninski's coincidence tester). Same planes
/// and the same domain check as collision_pairs.
[[nodiscard]] std::uint64_t distinct_values(
    std::span<const std::uint64_t> samples, std::uint64_t domain);

class ProtocolBatchExecutor {
 public:
  /// The message of player j from its exact pair-collision count. `rng`
  /// is the player's private post-sampling stream. Resolved ONCE per
  /// tester — must be stateless (safe for concurrent trials across
  /// harness workers).
  using Vote =
      std::function<Message(unsigned j, std::uint64_t pairs, Rng& rng)>;

  /// Symmetric: every player draws `q` samples.
  ProtocolBatchExecutor(unsigned k, unsigned q, Vote vote,
                        unsigned message_width = 1);

  /// Asymmetric: player j draws `qs[j]` samples (Section 6.2 rates).
  explicit ProtocolBatchExecutor(std::vector<unsigned> qs, Vote vote,
                                 unsigned message_width = 1);

  /// One trial's messages, in player order, in a per-worker buffer (valid
  /// until the same worker's next call).
  [[nodiscard]] const std::vector<Message>& collect(const SampleSource& source,
                                                    Rng& rng) const;

  /// Full trial: collect, extract low-bit votes, apply the referee rule.
  /// true = accept.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng,
                         const DecisionRule& rule) const;

 private:
  std::vector<unsigned> qs_;
  Vote vote_;
  unsigned width_ = 1;
};

}  // namespace duti
