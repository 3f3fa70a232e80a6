// Players in the simultaneous-message model (Section 2): each player sees
// q iid samples and sends a short message (usually one bit) to the referee.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

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

/// Interface: decide a message from the local samples. `rng` is the
/// player's private randomness; shared randomness, when a protocol uses it,
/// is baked into the player at construction time (the lower bounds hold for
/// any fixing of the shared coins, Section 6.1).
class Player {
 public:
  virtual ~Player() = default;
  [[nodiscard]] virtual Message decide(std::span<const std::uint64_t> samples,
                                       Rng& rng) = 0;
  [[nodiscard]] virtual unsigned message_bits() const { return 1; }
};

/// A player defined by an arbitrary callback (used by the testers).
class CallbackPlayer final : public Player {
 public:
  using Fn = std::function<Message(std::span<const std::uint64_t>, Rng&)>;

  CallbackPlayer(Fn fn, unsigned width) : fn_(std::move(fn)), width_(width) {
    require(width >= 1 && width <= 32, "CallbackPlayer: width in [1,32]");
  }

  [[nodiscard]] Message decide(std::span<const std::uint64_t> samples,
                               Rng& rng) override {
    Message m = fn_(samples, rng);
    require(m.width == width_, "CallbackPlayer: width mismatch");
    return m;
  }

  [[nodiscard]] unsigned message_bits() const override { return width_; }

 private:
  Fn fn_;
  unsigned width_;
};

}  // namespace duti
