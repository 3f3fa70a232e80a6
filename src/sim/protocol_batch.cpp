#include "sim/protocol_batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace duti {

namespace {

// Per-worker buffers. All grown-only: a trial leaves the tally plane
// all-zeros (cells are zeroed through the just-drawn samples), and
// vector::resize zero-fills fresh cells, so the invariant "every cell of
// tls_plane below its size is zero between trials" holds without ever
// memset-ing the whole plane.
thread_local std::vector<std::uint64_t> tls_samples;
thread_local std::vector<std::uint64_t> tls_plane;
thread_local std::vector<Message> tls_messages;
thread_local std::vector<std::uint8_t> tls_votes;

// Exact pair count via the sparse tally: scatter-increment accumulating
// the running collision total, then zero exactly the touched cells.
// Incrementing c -> c+1 adds c new pairs, so the sum over draws of the
// pre-increment count is exactly sum over cells of C(c,2).
std::uint64_t pairs_by_tally(std::span<const std::uint64_t> samples,
                             std::uint64_t domain) {
  if (tls_plane.size() < domain) tls_plane.resize(domain);
  std::uint64_t pairs = 0;
  for (const std::uint64_t s : samples) pairs += tls_plane[s]++;
  for (const std::uint64_t s : samples) tls_plane[s] = 0;
  return pairs;
}

// Sort fallback for domains too large to hold a plane: count equal runs in
// the (reused, caller-owned) buffer. Same integer as the tally — this is
// the testers' collision_pairs() algorithm, re-stated locally because the
// sim layer sits below testers/ and cannot include it.
std::uint64_t pairs_by_sort(std::span<std::uint64_t> samples) {
  std::sort(samples.begin(), samples.end());
  std::uint64_t pairs = 0;
  std::size_t i = 0;
  while (i < samples.size()) {
    std::size_t j = i + 1;
    while (j < samples.size() && samples[j] == samples[i]) ++j;
    const std::uint64_t run = j - i;
    pairs += run * (run - 1) / 2;
    i = j;
  }
  return pairs;
}

}  // namespace

std::uint64_t tallied_collision_pairs(std::span<const std::uint64_t> samples,
                                      std::uint64_t domain) {
  if (domain <= kMaxTallyPlaneDomain) return pairs_by_tally(samples, domain);
  static thread_local std::vector<std::uint64_t> sort_scratch;
  sort_scratch.assign(samples.begin(), samples.end());
  return pairs_by_sort(sort_scratch);
}

ProtocolBatchExecutor::ProtocolBatchExecutor(unsigned k, unsigned q, Vote vote,
                                             unsigned message_width)
    : qs_(k, q), vote_(std::move(vote)), width_(message_width) {
  require(k >= 1, "ProtocolBatchExecutor: need at least one player");
  require(q >= 1, "ProtocolBatchExecutor: q must be >= 1");
  require(static_cast<bool>(vote_), "ProtocolBatchExecutor: null vote");
  require(width_ >= 1 && width_ <= 32,
          "ProtocolBatchExecutor: message width must be in [1, 32]");
}

ProtocolBatchExecutor::ProtocolBatchExecutor(std::vector<unsigned> qs,
                                             Vote vote, unsigned message_width)
    : qs_(std::move(qs)), vote_(std::move(vote)), width_(message_width) {
  require(!qs_.empty(), "ProtocolBatchExecutor: need at least one player");
  for (unsigned q : qs_) {
    require(q >= 1, "ProtocolBatchExecutor: every q must be >= 1");
  }
  require(static_cast<bool>(vote_), "ProtocolBatchExecutor: null vote");
  require(width_ >= 1 && width_ <= 32,
          "ProtocolBatchExecutor: message width must be in [1, 32]");
}

void ProtocolBatchExecutor::collect(const SampleSource& source, Rng& rng,
                                    std::vector<Message>& messages) const {
  const std::uint64_t domain = source.domain_size();
  messages.resize(qs_.size());
  for (unsigned j = 0; j < qs_.size(); ++j) {
    // Identical stream derivation to SimultaneousProtocol::collect — one
    // run-rng draw per player, in player order — so the batched plane
    // replays the legacy path's randomness bit-for-bit.
    Rng player_rng = make_rng(rng(), j);
    source.sample_many(player_rng, qs_[j], tls_samples);
    // Tally (and reset) before the vote, so a throwing vote cannot leave
    // the plane dirty for the worker's next trial.
    const std::uint64_t pairs = (domain <= kMaxTallyPlaneDomain)
                                    ? pairs_by_tally(tls_samples, domain)
                                    : pairs_by_sort(tls_samples);
    Message m = vote_(j, pairs, player_rng);
    require(m.width == width_,
            "ProtocolBatchExecutor: vote returned unexpected message width");
    messages[j] = m;
  }
}

const std::vector<Message>& ProtocolBatchExecutor::collect_tls(
    const SampleSource& source, Rng& rng) const {
  collect(source, rng, tls_messages);
  return tls_messages;
}

bool ProtocolBatchExecutor::run(const SampleSource& source, Rng& rng,
                                const DecisionRule& rule,
                                std::vector<Message>& messages,
                                std::vector<std::uint8_t>& votes) const {
  collect(source, rng, messages);
  votes.resize(messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    votes[j] = static_cast<std::uint8_t>(messages[j].bits & 1U);
  }
  return rule.decide(votes);
}

bool ProtocolBatchExecutor::run(const SampleSource& source, Rng& rng,
                                const DecisionRule& rule) const {
  return run(source, rng, rule, tls_messages, tls_votes);
}

}  // namespace duti
