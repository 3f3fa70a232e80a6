#include "sim/protocol_batch.hpp"

#include <algorithm>
#include <string>

namespace duti {

namespace {

// Per-worker buffers. All grown-only: a tally leaves the plane all-zeros
// (cells are zeroed through the just-counted samples), and vector::resize
// zero-fills fresh cells, so the invariant "every cell of tls_plane below
// its size is zero between calls" holds without ever memset-ing the whole
// plane.
thread_local std::vector<std::uint64_t> tls_samples;
thread_local std::vector<std::uint64_t> tls_plane;
thread_local std::vector<std::uint64_t> tls_sorted;
thread_local std::vector<Message> tls_messages;
thread_local std::vector<std::uint8_t> tls_votes;

[[noreturn]] void throw_outside_domain(const char* who, std::uint64_t sample,
                                       std::uint64_t domain) {
  throw InvalidArgument(std::string(who) + ": sample " +
                        std::to_string(sample) + " is outside the domain [0, " +
                        std::to_string(domain) + ")");
}

// Zeroes the cells the samples counted so far touched, so the plane stays
// clean for this worker's next call, then rejects the sample that follows
// them. Kept out of line so the tally loop stays small.
[[noreturn, gnu::noinline, gnu::cold]] void reject_on_plane(
    std::uint64_t* plane, std::span<const std::uint64_t> counted,
    const char* who, std::uint64_t sample, std::uint64_t domain) {
  for (const std::uint64_t s : counted) plane[s] = 0;
  throw_outside_domain(who, sample, domain);
}

// Both statistics are sums over cells of a function of the cell's count c:
// C(c,2) for pairs, [c > 0] for distinct values. The tally adds, at each
// draw, what that function gains when c becomes c+1 (c for pairs, [c == 0]
// for distinct values), so the sum over draws is exact.
template <bool kPairs>
std::uint64_t count_on_plane(std::span<const std::uint64_t> samples,
                             std::uint64_t domain, const char* who) {
  if (tls_plane.size() < domain) tls_plane.resize(domain);
  // A raw pointer keeps the thread_local's guard check out of the loop.
  std::uint64_t* const plane = tls_plane.data();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t s = samples[i];
    if (s >= domain) [[unlikely]] {
      reject_on_plane(plane, samples.first(i), who, s, domain);
    }
    const std::uint64_t c = plane[s]++;
    if constexpr (kPairs) {
      total += c;
    } else {
      total += c == 0 ? 1 : 0;
    }
  }
  for (const std::uint64_t s : samples) plane[s] = 0;
  return total;
}

// The fallback above the plane cap: the same sums, taken once per run of
// equal values in a sorted per-worker copy.
template <bool kPairs>
std::uint64_t count_by_sort(std::span<const std::uint64_t> samples,
                            std::uint64_t domain, const char* who) {
  const auto outside = std::find_if(
      samples.begin(), samples.end(),
      [domain](std::uint64_t s) { return s >= domain; });
  if (outside != samples.end()) throw_outside_domain(who, *outside, domain);
  tls_sorted.assign(samples.begin(), samples.end());
  std::sort(tls_sorted.begin(), tls_sorted.end());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < tls_sorted.size();) {
    std::size_t j = i + 1;
    while (j < tls_sorted.size() && tls_sorted[j] == tls_sorted[i]) ++j;
    const std::uint64_t run = j - i;
    total += kPairs ? run * (run - 1) / 2 : 1;
    i = j;
  }
  return total;
}

template <bool kPairs>
std::uint64_t count_cells(std::span<const std::uint64_t> samples,
                          std::uint64_t domain, const char* who) {
  return domain <= kMaxTallyPlaneDomain
             ? count_on_plane<kPairs>(samples, domain, who)
             : count_by_sort<kPairs>(samples, domain, who);
}

}  // namespace

std::uint64_t collision_pairs(std::span<const std::uint64_t> samples,
                              std::uint64_t domain) {
  return count_cells<true>(samples, domain, "collision_pairs");
}

std::uint64_t distinct_values(std::span<const std::uint64_t> samples,
                              std::uint64_t domain) {
  return count_cells<false>(samples, domain, "distinct_values");
}

ProtocolBatchExecutor::ProtocolBatchExecutor(unsigned k, unsigned q, Vote vote,
                                             unsigned message_width)
    : ProtocolBatchExecutor(std::vector<unsigned>(k, q), std::move(vote),
                            message_width) {}

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

const std::vector<Message>& ProtocolBatchExecutor::collect(
    const SampleSource& source, Rng& rng) const {
  const std::uint64_t domain = source.domain_size();
  tls_messages.resize(qs_.size());
  for (unsigned j = 0; j < qs_.size(); ++j) {
    // A private stream per player, one run-rng draw each in player order,
    // so runs replay regardless of how much randomness a vote consumes.
    Rng player_rng = make_rng(rng(), j);
    source.sample_many(player_rng, qs_[j], tls_samples);
    // Count (and reset the plane) before the vote, so a throwing vote
    // cannot leave the plane dirty for the worker's next trial.
    const std::uint64_t pairs = collision_pairs(tls_samples, domain);
    const Message m = vote_(j, pairs, player_rng);
    require(m.width == width_,
            "ProtocolBatchExecutor: vote returned unexpected message width");
    tls_messages[j] = m;
  }
  return tls_messages;
}

bool ProtocolBatchExecutor::run(const SampleSource& source, Rng& rng,
                                const DecisionRule& rule) const {
  const std::vector<Message>& messages = collect(source, rng);
  tls_votes.resize(messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    tls_votes[j] = static_cast<std::uint8_t>(messages[j].bits & 1U);
  }
  return rule.decide(tls_votes);
}

}  // namespace duti
