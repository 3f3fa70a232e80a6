// The r-bit generalization of the message analysis (end of Section 1:
// "our results generalize to any number l >= 1 of bits: the lower bounds
// decay as 2^{-Theta(l)}").
//
// A player's behaviour is now a map G : tuples -> {0, ..., 2^r - 1}. The
// information the referee receives from one player is the divergence
// between the message distribution under nu_z^q and under uniform:
//
//   D_z = D( G#nu_z^q  ||  G#mu^q )      (pushforward distributions)
//
// This class computes both pushforwards exactly by enumeration, the KL
// divergence per perturbation vector, and its expectation over z — the
// r-bit analogue of the quantity Lemma 4.2 caps. The accompanying tests
// and bench check the 2^{-Theta(r)} style behaviour: splitting the same
// statistic across more output symbols raises the per-player divergence,
// but never beyond the data-processing ceiling given by the full
// likelihood.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/sample_tuple.hpp"
#include "dist/nu_z.hpp"

namespace duti {

class MultibitMessageAnalysis {
 public:
  /// `message` maps a packed sample tuple to a symbol in [0, 2^r).
  MultibitMessageAnalysis(SampleTupleCodec codec, unsigned r,
                          std::function<std::uint32_t(std::uint64_t)> message);

  [[nodiscard]] unsigned r() const noexcept { return r_; }
  [[nodiscard]] std::uint64_t num_symbols() const noexcept {
    return 1ULL << r_;
  }
  [[nodiscard]] const SampleTupleCodec& codec() const noexcept {
    return codec_;
  }

  /// Pushforward of the uniform tuple distribution through the message map
  /// (computed once, cached). Throws InvalidArgument when a symbol is
  /// outside [0, 2^r).
  [[nodiscard]] const std::vector<double>& uniform_pushforward() const;

  /// Pushforward of nu_z^q through the message map (exact enumeration).
  /// Throws like uniform_pushforward.
  [[nodiscard]] std::vector<double> nu_z_pushforward(const NuZ& nu) const;

  /// KL divergence D(message | nu_z || message | uniform) in bits.
  [[nodiscard]] double divergence_given_z(const NuZ& nu) const;

  /// Exact E_z over all 2^{2^ell} perturbation vectors (ell <= 4).
  [[nodiscard]] double expected_divergence_exact(double eps) const;

  /// Data-processing ceiling: the divergence of the FULL sample tuple,
  /// E_z[D(nu_z^q || mu^q)] — no message function can exceed it.
  [[nodiscard]] static double full_tuple_divergence_exact(
      const SampleTupleCodec& codec, double eps);

 private:
  /// message_(t) for every packed tuple t, computed and range-checked on
  /// first use: the pushforwards of all 2^(2^ell) vectors z share it.
  [[nodiscard]] const std::vector<std::uint32_t>& symbols() const;

  SampleTupleCodec codec_;
  unsigned r_;
  std::function<std::uint32_t(std::uint64_t)> message_;
  mutable std::vector<std::uint32_t> symbols_;
  mutable std::vector<double> uniform_push_;
};

}  // namespace duti
