// The simultaneous-message protocol runner (Section 2): k players each draw
// q_j iid samples from the unknown distribution, compute messages, and a
// referee applies a decision rule to the received bits.
//
// Per-player sample counts may differ (the asymmetric-rate model of
// Section 6.2). Randomness is deterministic: player j in a given run uses
// an RNG stream derived from the run RNG, so experiments replay exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/decision_rule.hpp"
#include "sim/player.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

struct ProtocolResult {
  bool accept = false;
  std::vector<Message> messages;
  std::uint64_t communication_bits = 0;  // total bits sent to the referee
  std::uint64_t samples_drawn = 0;       // total samples across players
};

class SimultaneousProtocol {
 public:
  /// Creates player j (0-based). Factories let every trial use fresh player
  /// state while sharing immutable configuration.
  using PlayerFactory = std::function<std::unique_ptr<Player>(unsigned j)>;

  /// Symmetric: every player draws `q` samples.
  SimultaneousProtocol(unsigned k, unsigned q, PlayerFactory factory);

  /// Asymmetric: player j draws `qs[j]` samples.
  SimultaneousProtocol(std::vector<unsigned> qs, PlayerFactory factory);

  [[nodiscard]] unsigned num_players() const noexcept {
    return static_cast<unsigned>(qs_.size());
  }
  [[nodiscard]] unsigned samples_of(unsigned j) const { return qs_.at(j); }

  /// Draw samples, run every player, and collect the messages.
  [[nodiscard]] std::vector<Message> collect(const SampleSource& source,
                                             Rng& rng) const;

  /// Full run: collect messages and apply a 1-bit decision rule to the
  /// players' low bits.
  [[nodiscard]] ProtocolResult run(const SampleSource& source, Rng& rng,
                                   const DecisionRule& rule) const;

  /// Extract the 1-bit votes (low bit of each message).
  [[nodiscard]] static std::vector<std::uint8_t> votes_of(
      const std::vector<Message>& messages);

 private:
  std::vector<unsigned> qs_;
  PlayerFactory factory_;
};

}  // namespace duti
