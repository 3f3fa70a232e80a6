#include "testers/message_maps.hpp"

#include <vector>

#include "testers/collision.hpp"
#include "testers/multibit.hpp"
#include "util/error.hpp"

namespace duti {

std::function<std::uint32_t(std::uint64_t)> collision_count_message(
    const SampleTupleCodec& codec, unsigned r) {
  require(codec.q() >= 2, "collision_count_message: q >= 2");
  require(r >= 1 && r <= 20, "collision_count_message: r in [1,20]");
  const unsigned q = codec.q();
  const std::uint64_t n = codec.domain().universe_size();
  const std::uint64_t offset = MultibitSumTester::window_offset(n, q, r);
  return [codec, q, n, r, offset](std::uint64_t packed) {
    std::vector<std::uint64_t> elements(q);
    for (unsigned j = 0; j < q; ++j) {
      elements[j] = codec.element(packed, j);
    }
    return MultibitSumTester::encode_count(collision_pairs(elements, n), r,
                                           offset);
  };
}

std::function<std::uint32_t(std::uint64_t)> collision_vote_message(
    const SampleTupleCodec& codec) {
  require(codec.q() >= 2, "collision_vote_message: q >= 2");
  const unsigned q = codec.q();
  const std::uint64_t n = codec.domain().universe_size();
  const CollisionVote vote = CollisionVote::at_uniform_mean(n, q);
  return [codec, q, n, vote](std::uint64_t packed) -> std::uint32_t {
    std::vector<std::uint64_t> elements(q);
    for (unsigned j = 0; j < q; ++j) {
      elements[j] = codec.element(packed, j);
    }
    return vote.rejects(collision_pairs(elements, n)) ? 0U : 1U;
  };
}

}  // namespace duti
