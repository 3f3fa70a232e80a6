// A uniform interface over "things players can draw samples from": a
// materialized DiscreteDistribution, the structured NuZ and Paninski
// families (built without materializing a pmf), or the exact uniform
// distribution on a large domain.
//
// sample_many and count_pairs are the hot paths of every tester's inner
// loop, so they are virtual: each source draws whole batches with one
// dispatch instead of one virtual call per sample. Overrides MUST consume
// the RNG exactly like repeated sample() calls, so batch and scalar drawing
// are interchangeable bit-for-bit (checked in test_workloads and
// test_protocol_batch).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "dist/discrete_distribution.hpp"
#include "dist/nu_z.hpp"
#include "dist/paninski.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {

/// Largest domain for which sample_counts will materialize a histogram
/// (the counts vector itself is Theta(domain) memory).
inline constexpr std::uint64_t kMaxCountedDomain = 1ULL << 26;

/// Largest domain the pair and distinct counts tally into a flat counts
/// plane; above this they sort a copy of the samples instead. The plane is
/// per-worker memory: 2^22 cells = 32 MiB ceiling.
inline constexpr std::uint64_t kMaxTallyPlaneDomain = 1ULL << 22;

/// The `decided_above` of a count nothing decides early: count_pairs makes
/// all q draws and counts every pair.
inline constexpr std::uint64_t kNoPairBound =
    std::numeric_limits<std::uint64_t>::max();

// The per-worker counts plane behind every pair and distinct count
// (collision_pairs, distinct_values and SampleSource::count_pairs; DESIGN.md
// §11). Defined in sim/protocol_batch.cpp.
namespace tally {

/// The calling thread's plane, at least `domain` cells. Every cell is zero
/// between tallies: each tally zeroes the cells it touched before it
/// returns or throws.
[[nodiscard]] std::uint64_t* plane(std::uint64_t domain);

/// The calling thread's sample buffer for count_pairs and coincidence draws.
[[nodiscard]] std::vector<std::uint64_t>& samples();

/// Zeroes the cells `counted` touched, then throws InvalidArgument naming
/// `who`, the sample and the domain. Out of line and cold, so the tally
/// loops stay small.
[[noreturn, gnu::noinline, gnu::cold]] void reject(
    std::uint64_t* plane, std::span<const std::uint64_t> counted,
    const char* who, std::uint64_t sample, std::uint64_t domain);

/// The tally's one step: counts samples[i] on the plane (samples[0..i)
/// already counted) and returns what the statistic gains. Both statistics
/// are sums over cells of a function of the cell's count c — C(c,2) for
/// pairs, [c > 0] for distinct values — and the step adds what that
/// function gains when c becomes c+1 (c, or [c == 0]), so the sum over the
/// steps is exact. A sample outside the domain is rejected before it
/// indexes the plane.
template <bool kPairs>
std::uint64_t step(std::uint64_t* plane, const std::uint64_t* samples,
                   std::size_t i, std::uint64_t domain, const char* who) {
  const std::uint64_t s = samples[i];
  if (s >= domain) [[unlikely]] {
    reject(plane, {samples, i}, who, s, domain);
  }
  const std::uint64_t c = plane[s]++;
  if constexpr (kPairs) {
    return c;
  } else {
    return c == 0 ? 1 : 0;
  }
}

}  // namespace tally

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Draw one element of {0, ..., domain_size()-1}.
  [[nodiscard]] virtual std::uint64_t sample(Rng& rng) const = 0;

  [[nodiscard]] virtual std::uint64_t domain_size() const = 0;

  /// l1 distance from the uniform distribution (exact where known).
  [[nodiscard]] virtual double l1_from_uniform() const = 0;

  /// Fill `out` with `count` iid samples. The default loops over sample();
  /// concrete sources override with a single-dispatch batch loop.
  virtual void sample_many(Rng& rng, std::size_t count,
                           std::vector<std::uint64_t>& out) const {
    out.resize(count);
    for (auto& s : out) s = sample(rng);
  }

  /// Tally `draws` iid samples into a per-element histogram:
  /// counts.size() == domain_size(), counts[i] = multiplicity of element i.
  /// Draws through sample_many and tallies, so it consumes the RNG exactly
  /// like sample_many (DESIGN.md section 8). Virtual only so that a
  /// forwarding decorator (perfbench's TracedSource) can time it. Throws
  /// CapacityError when the domain exceeds kMaxCountedDomain.
  virtual void sample_counts(Rng& rng, std::size_t draws,
                             std::vector<std::uint64_t>& counts) const {
    if (domain_size() > kMaxCountedDomain) {
      throw CapacityError("sample_counts: domain too large to materialize");
    }
    counts.assign(domain_size(), 0);
    static thread_local std::vector<std::uint64_t> scratch;
    sample_many(rng, draws, scratch);
    // The plain scatter: a banked SIMD variant measured slower (DESIGN.md
    // §11).
    for (const std::uint64_t s : scratch) ++counts[s];
  }

  /// A player's exact pair count #{a < b : s_a = s_b} over its draws,
  /// stopped once it is decided: the count covers the draws up to and
  /// including the first one after which it exceeds `decided_above`, or all
  /// q draws when none does (always, with kNoPairBound). The default draws
  /// all q through sample_many and tallies that prefix, so a source that
  /// overrides only sample_many keeps its stream and its counts; the
  /// built-in sources override it with draw_and_count_pairs below, which
  /// makes no draw past that prefix. Domains above kMaxTallyPlaneDomain
  /// count all q draws by sorting and ignore the bound. Throws
  /// InvalidArgument, naming the sample and the domain, if a draw falls
  /// outside [0, domain_size()).
  [[nodiscard]] virtual std::uint64_t count_pairs(
      Rng& rng, unsigned q, std::uint64_t decided_above) const;
};

/// count_pairs for a source whose one draw is `draw(rng)`: draws and
/// tallies in one loop on the worker's plane, on a register copy of the
/// stream (util/rng.hpp), and makes no draw once the count exceeds
/// `decided_above`. The draws it makes are sample_many's first ones, so
/// with no bound the stream ends where sample_many(rng, q, ...) leaves it.
/// Domains above the plane cap take the default (all q draws, sorted).
template <typename Draw>
std::uint64_t draw_and_count_pairs(const SampleSource& source, Rng& rng,
                                   unsigned q, std::uint64_t decided_above,
                                   Draw draw) {
  const std::uint64_t domain = source.domain_size();
  if (domain > kMaxTallyPlaneDomain) {
    return source.SampleSource::count_pairs(rng, q, decided_above);
  }
  std::vector<std::uint64_t>& buffer = tally::samples();
  if (buffer.size() < q) buffer.resize(q);
  // Raw pointers keep the thread_locals' guard checks out of the loop.
  std::uint64_t* const out = buffer.data();
  std::uint64_t* const plane = tally::plane(domain);
  // Forced inline: left to the heuristics, GCC 12 -O2 calls the alias
  // instantiation's body out of line, and the copy goes back to memory.
  return with_register_copy(rng, [&] [[gnu::always_inline]] (Rng& local) {
    std::uint64_t pairs = 0;
    std::size_t drawn = 0;
    while (drawn < q) {
      out[drawn] = draw(local);
      pairs += tally::step<true>(plane, out, drawn, domain, "count_pairs");
      ++drawn;
      if (pairs > decided_above) break;
    }
    for (std::size_t i = 0; i < drawn; ++i) plane[out[i]] = 0;
    return pairs;
  });
}

/// Exact uniform on {0,...,n-1}; O(1) memory for any n.
class UniformSource final : public SampleSource {
 public:
  explicit UniformSource(std::uint64_t n) : n_(n) {
    require(n >= 1, "UniformSource: n must be positive");
  }
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return rng.next_below(n_);
  }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    out.resize(count);
    // next_below(n) through with_index_draw: one shift per draw when n is a
    // power of two, the same stream either way. Serial xoshiro draws: a
    // stream-identical AVX2 Lemire loop measured ~2x slower (DESIGN.md
    // §11). The index draw and the register copy of the stream stay in
    // registers; n_ and rng's state could alias the uint64 stores into
    // `out`.
    with_index_draw(n_, [&rng, &out](auto index) {
      with_register_copy(rng, [&out, index](Rng& local) {
        for (auto& s : out) s = index(local);
      });
    });
  }
  [[nodiscard]] std::uint64_t count_pairs(
      Rng& rng, unsigned q, std::uint64_t decided_above) const override {
    return with_index_draw(n_, [&](auto index) {
      return draw_and_count_pairs(*this, rng, q, decided_above, index);
    });
  }
  [[nodiscard]] std::uint64_t domain_size() const override { return n_; }
  [[nodiscard]] double l1_from_uniform() const override { return 0.0; }

 private:
  std::uint64_t n_;
};

/// Wraps a DiscreteDistribution (alias-method sampling).
class DistributionSource final : public SampleSource {
 public:
  explicit DistributionSource(DiscreteDistribution dist)
      : dist_(std::move(dist)) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return dist_.sample(rng);
  }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    dist_.sample_many(rng, count, out);
  }
  [[nodiscard]] std::uint64_t count_pairs(
      Rng& rng, unsigned q, std::uint64_t decided_above) const override {
    return dist_.sampler().with_draw([&](const auto& draw) {
      return draw_and_count_pairs(*this, rng, q, decided_above, draw);
    });
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return dist_.domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override {
    return dist_.l1_from_uniform();
  }
  [[nodiscard]] const DiscreteDistribution& distribution() const noexcept {
    return dist_;
  }

 private:
  DiscreteDistribution dist_;
};

/// Wraps the structured hard distribution nu_z (Section 3), sampled in O(1)
/// per draw regardless of the universe size.
class NuZSource final : public SampleSource {
 public:
  explicit NuZSource(NuZ nu) : nu_(std::move(nu)) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return nu_.sample(rng);
  }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    nu_.sample_many(rng, count, out);
  }
  [[nodiscard]] std::uint64_t count_pairs(
      Rng& rng, unsigned q, std::uint64_t decided_above) const override {
    return draw_and_count_pairs(*this, rng, q, decided_above,
                                [this](Rng& r) { return nu_.sample(r); });
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return nu_.domain().universe_size();
  }
  [[nodiscard]] double l1_from_uniform() const override {
    return nu_.l1_from_uniform();
  }
  [[nodiscard]] const NuZ& nu() const noexcept { return nu_; }

 private:
  NuZ nu_;
};

/// Wraps the flat-domain Paninski family (dist/paninski.hpp). The alias
/// table is built from the pair signs at construction, so no draw builds
/// one, and every draw is bit-identical to
/// DistributionSource(p.to_distribution())'s.
class PaninskiSource final : public SampleSource {
 public:
  explicit PaninskiSource(Paninski p)
      : p_(std::move(p)), sampler_(p_.sampler()) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return sampler_.sample(rng);
  }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    sampler_.sample_many(rng, count, out);
  }
  [[nodiscard]] std::uint64_t count_pairs(
      Rng& rng, unsigned q, std::uint64_t decided_above) const override {
    return sampler_.with_draw([&](const auto& draw) {
      return draw_and_count_pairs(*this, rng, q, decided_above, draw);
    });
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return p_.domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override {
    return p_.l1_from_uniform();
  }
  [[nodiscard]] const Paninski& paninski() const noexcept { return p_; }

 private:
  Paninski p_;
  AliasSampler sampler_;
};

}  // namespace duti
