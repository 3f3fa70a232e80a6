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
thread_local std::vector<std::uint64_t> tls_seeds;
thread_local std::vector<Message> tls_messages;

[[noreturn]] void throw_outside_domain(const char* who, std::uint64_t sample,
                                       std::uint64_t domain) {
  throw InvalidArgument(std::string(who) + ": sample " +
                        std::to_string(sample) + " is outside the domain [0, " +
                        std::to_string(domain) + ")");
}

// The tally step over `samples` on the plane, stopped after the first
// sample that takes the total above `decided_above`; the plane is zeroed
// through the counted samples afterwards.
template <bool kPairs>
std::uint64_t count_on_plane(std::span<const std::uint64_t> samples,
                             std::uint64_t domain, const char* who,
                             std::uint64_t decided_above) {
  std::uint64_t* const plane = tally::plane(domain);
  std::uint64_t total = 0;
  std::size_t counted = 0;
  while (counted < samples.size()) {
    total += tally::step<kPairs>(plane, samples.data(), counted, domain, who);
    ++counted;
    if (total > decided_above) break;
  }
  for (const std::uint64_t s : samples.first(counted)) plane[s] = 0;
  return total;
}

// The fallback above the plane cap: the same sums over all samples, taken
// once per run of equal values in a sorted per-worker copy.
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
                          std::uint64_t domain, const char* who,
                          std::uint64_t decided_above = kNoPairBound) {
  return domain <= kMaxTallyPlaneDomain
             ? count_on_plane<kPairs>(samples, domain, who, decided_above)
             : count_by_sort<kPairs>(samples, domain, who);
}

}  // namespace

std::uint64_t* tally::plane(std::uint64_t domain) {
  if (tls_plane.size() < domain) tls_plane.resize(domain);
  return tls_plane.data();
}

std::vector<std::uint64_t>& tally::samples() { return tls_samples; }

void tally::reject(std::uint64_t* plane,
                   std::span<const std::uint64_t> counted, const char* who,
                   std::uint64_t sample, std::uint64_t domain) {
  for (const std::uint64_t s : counted) plane[s] = 0;
  throw_outside_domain(who, sample, domain);
}

std::uint64_t SampleSource::count_pairs(Rng& rng, unsigned q,
                                        std::uint64_t decided_above) const {
  sample_many(rng, q, tls_samples);
  return count_cells<true>(tls_samples, domain_size(), "count_pairs",
                           decided_above);
}

std::uint64_t collision_pairs(std::span<const std::uint64_t> samples,
                              std::uint64_t domain) {
  return count_cells<true>(samples, domain, "collision_pairs");
}

std::uint64_t distinct_values(std::span<const std::uint64_t> samples,
                              std::uint64_t domain) {
  return count_cells<false>(samples, domain, "distinct_values");
}

ProtocolBatchExecutor::ProtocolBatchExecutor(unsigned k, unsigned q, Vote vote,
                                             std::uint64_t decided_above,
                                             unsigned message_width)
    : ProtocolBatchExecutor(std::vector<unsigned>(k, q), std::move(vote),
                            std::vector<std::uint64_t>(k, decided_above),
                            message_width) {}

ProtocolBatchExecutor::ProtocolBatchExecutor(
    std::vector<unsigned> qs, Vote vote,
    std::vector<std::uint64_t> decided_above, unsigned message_width)
    : qs_(std::move(qs)),
      decided_above_(std::move(decided_above)),
      vote_(std::move(vote)),
      width_(message_width) {
  require(!qs_.empty(), "ProtocolBatchExecutor: need at least one player");
  for (unsigned q : qs_) {
    require(q >= 1, "ProtocolBatchExecutor: every q must be >= 1");
  }
  require(decided_above_.size() == qs_.size(),
          "ProtocolBatchExecutor: need one decided_above per player");
  require(static_cast<bool>(vote_), "ProtocolBatchExecutor: null vote");
  require(width_ >= 1 && width_ <= 32,
          "ProtocolBatchExecutor: message width must be in [1, 32]");
}

Message ProtocolBatchExecutor::play(unsigned j, std::uint64_t seed,
                                    const SampleSource& source) const {
  // A private stream per player, so runs replay regardless of how much
  // randomness a vote consumes or how early the player stops drawing.
  Rng player_rng = make_rng(seed, j);
  // count_pairs resets the plane before the vote, so a throwing vote
  // cannot leave it dirty for the worker's next trial.
  const std::uint64_t pairs =
      source.count_pairs(player_rng, qs_[j], decided_above_[j]);
  const Message m = vote_(j, pairs, player_rng);
  require(m.width == width_,
          "ProtocolBatchExecutor: vote returned unexpected message width");
  return m;
}

const std::vector<Message>& ProtocolBatchExecutor::collect(
    const SampleSource& source, Rng& rng) const {
  tls_messages.resize(qs_.size());
  for (unsigned j = 0; j < qs_.size(); ++j) {
    tls_messages[j] = play(j, rng(), source);
  }
  return tls_messages;
}

bool ProtocolBatchExecutor::run(const SampleSource& source, Rng& rng,
                                std::uint64_t reject_bar) const {
  require(reject_bar >= 1,
          "ProtocolBatchExecutor::run: reject_bar must be >= 1");
  const std::size_t k = qs_.size();
  // All k seeds first: the caller's stream moves k draws whether or not
  // every player runs.
  tls_seeds.resize(k);
  for (std::uint64_t& seed : tls_seeds) seed = rng();
  std::uint64_t rejects = 0;
  // Player j runs only while the verdict is open: rejects below the bar,
  // and the k - j players left could still reach it.
  for (unsigned j = 0; j < k && rejects < reject_bar &&
                       rejects + (k - j) >= reject_bar;
       ++j) {
    if ((play(j, tls_seeds[j], source).bits & 1U) == 0) ++rejects;
  }
  return rejects < reject_bar;
}

}  // namespace duti
