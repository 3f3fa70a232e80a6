// Message maps bridging the testers' encodings to the core module's
// MessageAnalysis: dense (tuple -> symbol) functions on small
// universes that mirror what the scalable testers compute per player.
#pragma once

#include <cstdint>
#include <functional>

#include "core/sample_tuple.hpp"

namespace duti {

/// The multibit tester's encoder as a dense message map: the local
/// collision count quantized to r bits with the centered saturating window
/// (see MultibitSumTester). Requires q >= 2.
[[nodiscard]] std::function<std::uint32_t(std::uint64_t)>
collision_count_message(const SampleTupleCodec& codec, unsigned r);

/// The 1-bit threshold voter as a message map: symbol 1 iff the collision
/// count is at or below the uniform mean (i.e. the "accept" bit).
[[nodiscard]] std::function<std::uint32_t(std::uint64_t)>
collision_vote_message(const SampleTupleCodec& codec);

}  // namespace duti
