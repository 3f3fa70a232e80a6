// Exact analysis of one player's message (Sections 4 and 6).
//
// A player's behaviour is a message M : tuples -> [0, 2^r) from its q
// samples to the symbol it sends. The paper's Boolean G : {-1,1}^{(ell+1)q}
// -> {0,1} is the r = 1 message of its values; the r-bit messages are those
// of Theorem 6.4 ("the lower bounds decay as 2^{-Theta(r)}"). This class
// computes, exactly (by enumeration) or, for the moments over z, by
// Monte-Carlo:
//
//   * the law of M under uniform tuples, and under any tuple law such as
//     nu_z^q (pushforwards);
//   * for r = 1: mu(G), var(G), nu_z(G) and the moments over a random
//     perturbation z of nu_z(G) - mu(G) — the quantities bounded by
//     Lemmas 4.2/4.3/4.4 and 5.1;
//   * E_z[D(M | nu_z^q || M | uniform)], the per-player information of
//     Section 6, whose ceiling is the identity message M(t) = t at
//     r = (ell+1)q (data processing).
//
// The tuples are grouped by symbol once, at construction: a one-bit pass
// visits only the tuples that send 1, and every sum adds a symbol's tuples
// in increasing tuple order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/sample_tuple.hpp"
#include "dist/nu_z.hpp"
#include "fourier/boolean_function.hpp"
#include "util/rng.hpp"

namespace duti {

/// Moments of D(z) = nu_z(G) - mu(G) over the perturbation vector z.
struct ZMoments {
  double mean_diff = 0.0;        // E_z[D(z)]        (Lemmas 5.1, 4.3)
  double mean_abs_diff = 0.0;    // E_z[|D(z)|]
  double second_moment = 0.0;    // E_z[D(z)^2]      (Lemmas 4.2, 4.4)
};

/// Calls `visit` with nu_z for each of the 2^(2^ell) perturbation vectors z
/// on `domain` (ell <= 4) — z's sign at x is - iff bit x of its index is
/// set — in index order, and returns their number. Every exact expectation
/// over z goes through this loop.
[[nodiscard]] std::uint64_t for_each_z(
    const CubeDomain& domain, double eps,
    const std::function<void(const NuZ&)>& visit);

class MessageAnalysis {
 public:
  using Message = std::function<std::uint32_t(std::uint64_t)>;

  /// `message` maps a packed sample tuple to a symbol in [0, 2^r), r in
  /// [1, 20]. Throws InvalidArgument for a bad r, a null message, or a
  /// tuple whose symbol is outside [0, 2^r).
  MessageAnalysis(SampleTupleCodec codec, unsigned r, const Message& message);

  /// The r = 1 message of G's values: `g` must be {0,1}-valued on exactly
  /// (ell+1)*q variables.
  MessageAnalysis(SampleTupleCodec codec, const BooleanCubeFunction& g);

  [[nodiscard]] const SampleTupleCodec& codec() const noexcept {
    return codec_;
  }

  /// The law of M under uniform tuples.
  [[nodiscard]] const std::vector<double>& uniform_pushforward()
      const noexcept {
    return uniform_push_;
  }

  /// The law of M when the tuple is drawn from `tuple_law` (one mass per
  /// packed tuple).
  [[nodiscard]] std::vector<double> pushforward(
      std::span<const double> tuple_law) const;

  // The one-bit quantities; they throw InvalidArgument unless r = 1.

  /// mu(G): the uniform mass of symbol 1.
  [[nodiscard]] double mu() const;

  /// nu_z(G) = nu_z^q(G = 1), summed over the tuples that send 1 only.
  [[nodiscard]] double nu_z(const NuZ& nu) const;

  /// var(G) = mu(G) - mu(G)^2 as in Section 2.
  [[nodiscard]] double variance() const;

  /// Exact moments over ALL 2^{2^ell} perturbation vectors (ell <= 4).
  [[nodiscard]] ZMoments z_moments_exact(double eps) const;

  /// Monte-Carlo moments over `z_trials` random perturbation vectors, with
  /// nu_z(G) computed exactly per z.
  [[nodiscard]] ZMoments z_moments_mc(double eps, std::size_t z_trials,
                                      Rng& rng) const;

  /// E_z[D(M | nu_z^q || M | uniform)] in bits, exactly over all z
  /// (ell <= 4).
  [[nodiscard]] double expected_divergence_exact(double eps) const;

 private:
  [[nodiscard]] std::uint64_t num_symbols() const noexcept {
    return 1ULL << r_;
  }

  SampleTupleCodec codec_;
  unsigned r_;
  // The tuples grouped by symbol, increasing within a group: symbol s's
  // tuples are by_symbol_[group_start_[s] .. group_start_[s + 1]).
  std::vector<std::uint32_t> by_symbol_;
  std::vector<std::size_t> group_start_;
  std::vector<double> uniform_push_;
};

/// expected_divergence_exact of every analysis, which must share one codec,
/// in one pass over z: each z's tuple masses are computed once for all.
[[nodiscard]] std::vector<double> expected_divergences_exact(
    std::span<const MessageAnalysis> analyses, double eps);

/// The Lemma 4.1 right-hand side for a {0,1}-valued G on (ell+1)q variables:
///   (2^q / n^q) sum_{S != empty} sum_x eps^{|S|}
///                  prod_{j in S} z(x_j) * G_x_hat(S).
/// Must equal nu_z(G) - mu(G) exactly; tests verify.
[[nodiscard]] double lemma41_fourier_difference(const SampleTupleCodec& codec,
                                                const BooleanCubeFunction& g,
                                                const NuZ& nu);

}  // namespace duti
