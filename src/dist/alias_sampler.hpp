// Walker/Vose alias method: O(n) preprocessing, O(1) sampling from an
// arbitrary discrete distribution. Sampling dominates the cost of every
// experiment in this library, so constant-time draws matter (see DESIGN.md
// decision D2; the ablation bench compares against inverse-CDF sampling).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace duti {

class AliasSampler {
 public:
  /// Build from unnormalized non-negative weights. Throws InvalidArgument on
  /// empty input, negative weights, an all-zero weight vector, or weights
  /// whose total overflows to infinity.
  explicit AliasSampler(const std::vector<double>& weights);

  /// The table of a two-level pair family (dist/paninski.hpp): 2 * pairs
  /// columns, where pair p holds one column of scaled weight `heavy` and
  /// one of `light` (heavy >= light), the heavy one at 2p + 1 when bit p of
  /// `heavy_odd` is set and at 2p otherwise. The scaled weights already
  /// carry the weights constructor's n / total factor; the table then
  /// equals that constructor's, bit for bit, built by walking the pairs
  /// instead of scanning weights. Throws InvalidArgument on zero pairs, too
  /// few sign words, or heavy < light.
  AliasSampler(std::span<const std::uint64_t> heavy_odd, std::size_t pairs,
               double heavy, double light);

  /// The one alias draw, over pointers into the table: two raws per draw,
  /// the index draw `Index` (next_below(n) as util/rng.hpp's ShiftIndex
  /// or BelowIndex) then the coin. sample(), sample_many and the sources'
  /// fused pair count (sim/sample_source.hpp) all draw through with_draw,
  /// so a loop holding a Draw keeps the table pointers in registers.
  template <typename Index>
  struct Draw {
    const std::uint64_t* threshold;
    const std::uint64_t* alias;
    Index index;

    std::uint64_t operator()(Rng& rng) const noexcept {
      const std::uint64_t i = index(rng);
      // Column i's coin `next_double() < p` as its integer threshold
      // (Rng::coin_threshold), and a select, not a branch: the coin fails
      // wherever a bucket was topped up, which on a Paninski table is a
      // quarter to half of all draws (DESIGN.md §11).
      const std::uint64_t other = alias[i];
      return (rng() >> 11) < threshold[i] ? i : other;
    }
  };

  /// Run `body(draw)` with this table's Draw, its index draw chosen once
  /// for the table's n columns (with_index_draw).
  template <typename Body>
  [[gnu::always_inline]] decltype(auto) with_draw(Body&& body) const {
    return with_index_draw(n_, [this, &body](auto index) {
      return body(
          Draw<decltype(index)>{threshold_.get(), alias_.get(), index});
    });
  }

  /// Draw one index in [0, n) with probability proportional to weight.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const noexcept {
    return with_draw([&rng](const auto& d) { return d(rng); });
  }

  /// Batched draws: fill `out` with `count` iid samples. Consumes the RNG
  /// exactly like `count` sample() calls (bit-identical), on a register
  /// copy of the stream (util/rng.hpp).
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const {
    out.resize(count);
    with_draw([&rng, &out](const auto& d) {
      with_register_copy(rng, [&out, d](Rng& local) {
        for (auto& s : out) s = d(local);
      });
    });
  }

  /// The coin table (exposed for tests): column i keeps i when the coin
  /// raw's top 53 bits are below threshold i, ⌈p_i·2^53⌉ for Vose's
  /// acceptance probability p_i, at most 2^53.
  [[nodiscard]] std::span<const std::uint64_t> threshold_table()
      const noexcept {
    return {threshold_.get(), n_};
  }

  /// The alias table (exposed for tests).
  [[nodiscard]] std::span<const std::uint64_t> alias_table() const noexcept {
    return {alias_.get(), n_};
  }

 private:
  /// Allocate both n-entry tables without zero-filling them: the Vose walk
  /// and the identity path of each constructor write every entry.
  void allocate(std::size_t n);

  std::size_t n_ = 0;
  std::unique_ptr<std::uint64_t[]> threshold_;
  std::unique_ptr<std::uint64_t[]> alias_;
};

}  // namespace duti
