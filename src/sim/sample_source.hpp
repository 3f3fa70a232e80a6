// A uniform interface over "things players can draw samples from": a
// materialized DiscreteDistribution, the structured NuZ and Paninski
// families (built without materializing a pmf), or the exact uniform
// distribution on a large domain. The protocol runner only needs sample()
// and domain_size().
//
// sample_many is the hot path of every tester's inner loop, so it is
// virtual: each source draws whole batches with one dispatch instead of one
// virtual call per sample. Overrides MUST consume the RNG exactly like
// count repeated sample() calls, so batch and scalar drawing are
// interchangeable bit-for-bit (checked in test_workloads).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/count_samplers.hpp"
#include "dist/discrete_distribution.hpp"
#include "dist/nu_z.hpp"
#include "dist/paninski.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {

/// Largest domain for which sample_counts will materialize a histogram
/// (the counts vector itself is Theta(domain) memory).
inline constexpr std::uint64_t kMaxCountedDomain = 1ULL << 26;

/// How a centralized tester materializes its q draws (DESIGN.md section 8).
/// Its count-only statistics can consume a per-element histogram directly:
///   kPerSample — sample_many + tally; the historical RNG stream.
///   kCounts    — SampleSource::sample_counts multinomial kernels,
///                O(min(n, q)) RNG work instead of O(q). Draws come from
///                the same distribution but consume the RNG DIFFERENTLY, so
///                per-trial outcomes (and thus measured ProbeResults) shift
///                within statistical noise; opt-in for that reason.
enum class SamplingKernel : std::uint8_t { kPerSample = 0, kCounts = 1 };

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
  /// The default draws through sample_many and tallies, so it consumes the
  /// RNG exactly like per-sample drawing. Structured sources override with
  /// direct multinomial kernels (binomial splitting) that match the sample
  /// DISTRIBUTION but consume the RNG stream differently — which is why
  /// count-kernel consumers are opt-in (DESIGN.md section 8). Throws
  /// CapacityError when the domain exceeds kMaxCountedDomain.
  virtual void sample_counts(Rng& rng, std::size_t draws,
                             std::vector<std::uint64_t>& counts) const {
    check_counted_domain();
    counts.assign(domain_size(), 0);
    static thread_local std::vector<std::uint64_t> scratch;
    sample_many(rng, draws, scratch);
    // The plain scatter: a banked SIMD variant measured slower (DESIGN.md
    // §11).
    for (const std::uint64_t s : scratch) ++counts[s];
  }

 protected:
  void check_counted_domain() const {
    if (domain_size() > kMaxCountedDomain) {
      throw CapacityError("sample_counts: domain too large to materialize");
    }
  }
};

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
    // Serial xoshiro draws either way: a stream-identical AVX2 Lemire loop
    // measured ~2x slower (DESIGN.md §11). The local bound stays in a
    // register; n_ could alias the uint64 stores into `out`.
    const std::uint64_t bound = n_;
    for (auto& s : out) s = rng.next_below(bound);
  }
  /// Counts kernel: when draws dominate the domain, split the multinomial
  /// recursively with exact binomial draws — O(n) binomial draws instead of
  /// O(draws) samples. Below that crossover, per-sample tallying is already
  /// the cheaper path (and keeps the per-sample RNG stream).
  void sample_counts(Rng& rng, std::size_t draws,
                     std::vector<std::uint64_t>& counts) const override {
    if (draws < n_) {
      SampleSource::sample_counts(rng, draws, counts);
      return;
    }
    check_counted_domain();
    counts.assign(n_, 0);
    binomial_split_counts(
        rng, draws, 0, n_,
        [&counts](std::uint64_t cell, std::uint64_t c) { counts[cell] = c; });
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
  /// Counts kernel via the two-level structure of nu_z: every cube point x
  /// has one HEAVY element (x, s = z(x)) of mass (1+eps)/n and one LIGHT
  /// partner of mass (1-eps)/n, and each class is uniform over the 2^ell
  /// cube points. Draw the heavy-class total as one Binomial(draws,
  /// (1+eps)/2), then split each class over its cube points with the
  /// uniform binomial-splitting kernel, scattering through the element
  /// encoding. O(min(2^ell, draws)) instead of O(draws) per trial.
  void sample_counts(Rng& rng, std::size_t draws,
                     std::vector<std::uint64_t>& counts) const override {
    check_counted_domain();
    const CubeDomain& dom = nu_.domain();
    const std::uint64_t side = dom.side_size();
    counts.assign(dom.universe_size(), 0);
    const double p_heavy = 0.5 * (1.0 + nu_.eps());
    const std::uint64_t heavy = binomial_sample(rng, draws, p_heavy);
    const PerturbationVector& z = nu_.z();
    binomial_split_counts(rng, heavy, 0, side,
                          [&](std::uint64_t x, std::uint64_t c) {
                            counts[dom.encode(x, z.sign(x))] = c;
                          });
    binomial_split_counts(rng, draws - heavy, 0, side,
                          [&](std::uint64_t x, std::uint64_t c) {
                            counts[dom.encode(x, -z.sign(x))] = c;
                          });
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
/// DistributionSource(p.to_distribution())'s. sample_counts keeps the
/// per-sample default, which consumes the RNG like sample_many.
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
