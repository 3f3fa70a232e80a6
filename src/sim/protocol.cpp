#include "sim/protocol.hpp"

#include "util/error.hpp"

namespace duti {

SimultaneousProtocol::SimultaneousProtocol(unsigned k, unsigned q,
                                           PlayerFactory factory)
    : qs_(k, q), factory_(std::move(factory)) {
  require(k >= 1, "SimultaneousProtocol: need at least one player");
  require(q >= 1, "SimultaneousProtocol: q must be >= 1");
  require(static_cast<bool>(factory_), "SimultaneousProtocol: null factory");
}

SimultaneousProtocol::SimultaneousProtocol(std::vector<unsigned> qs,
                                           PlayerFactory factory)
    : qs_(std::move(qs)), factory_(std::move(factory)) {
  require(!qs_.empty(), "SimultaneousProtocol: need at least one player");
  for (unsigned q : qs_) {
    require(q >= 1, "SimultaneousProtocol: every q must be >= 1");
  }
  require(static_cast<bool>(factory_), "SimultaneousProtocol: null factory");
}

std::vector<Message> SimultaneousProtocol::collect(const SampleSource& source,
                                                   Rng& rng) const {
  std::vector<Message> messages;
  messages.reserve(qs_.size());
  thread_local std::vector<std::uint64_t> samples;
  for (unsigned j = 0; j < qs_.size(); ++j) {
    // Derive a private stream per player so runs replay deterministically
    // regardless of how much randomness each player consumes.
    Rng player_rng = make_rng(rng(), j);
    source.sample_many(player_rng, qs_[j], samples);
    // Per-run construction is this path's contract: factories exist so each
    // trial can carry fresh player STATE. The batched executor
    // (protocol_batch.hpp) is the allocation-free plane for stateless voters.
    auto player = factory_(j);
    require(player != nullptr, "SimultaneousProtocol: factory returned null");
    messages.push_back(player->decide(samples, player_rng));
  }
  return messages;
}

ProtocolResult SimultaneousProtocol::run(const SampleSource& source, Rng& rng,
                                         const DecisionRule& rule) const {
  ProtocolResult result;
  result.messages = collect(source, rng);
  for (unsigned j = 0; j < qs_.size(); ++j) {
    result.communication_bits += result.messages[j].width;
    result.samples_drawn += qs_[j];
  }
  result.accept = rule.decide(votes_of(result.messages));
  return result;
}

std::vector<std::uint8_t> SimultaneousProtocol::votes_of(
    const std::vector<Message>& messages) {
  std::vector<std::uint8_t> votes(messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    votes[j] = static_cast<std::uint8_t>(messages[j].bits & 1U);
  }
  return votes;
}

}  // namespace duti
