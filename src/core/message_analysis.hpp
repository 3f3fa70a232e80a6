// Analysis of a single player's message function (Section 4).
//
// The player's behaviour is a Boolean function G : {-1,1}^{(ell+1)q} -> {0,1}
// mapping q samples to the bit it sends. This class computes, exactly (by
// enumeration) or, for the moments over z, by Monte-Carlo:
//
//   * mu(G)     — acceptance probability under uniform samples,
//   * nu_z(G)   — acceptance probability under nu_z^q,
//   * the Lemma 4.1 Fourier-side expression for nu_z(G) - mu(G),
//   * moments over a random perturbation z of the difference
//     nu_z(G) - mu(G) — the quantities bounded by Lemmas 4.2/4.3/4.4.
#pragma once

#include <cstdint>

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

class MessageAnalysis {
 public:
  /// `g` must be {0,1}-valued on exactly (ell+1)*q variables.
  MessageAnalysis(SampleTupleCodec codec, BooleanCubeFunction g);

  [[nodiscard]] const SampleTupleCodec& codec() const noexcept {
    return codec_;
  }
  [[nodiscard]] const BooleanCubeFunction& g() const noexcept { return g_; }

  /// mu(G): mean of G over the uniform distribution on tuples.
  [[nodiscard]] double mu() const { return g_.mean(); }

  /// var(G) as in Section 2.
  [[nodiscard]] double variance() const { return g_.variance(); }

  /// nu_z(G) = E_{S ~ nu_z^q}[G(S)], computed exactly by summing over all
  /// n^q tuples.
  [[nodiscard]] double nu_z_exact(const NuZ& nu) const;

  /// The Lemma 4.1 right-hand side:
  ///   (2^q / n^q) sum_{S != empty} sum_x eps^{|S|}
  ///                  prod_{j in S} z(x_j) * G_x_hat(S).
  /// Must equal nu_z_exact(nu) - mu() exactly; tests verify.
  [[nodiscard]] double lemma41_fourier_difference(const NuZ& nu) const;

  /// Exact moments over ALL 2^{2^ell} perturbation vectors (ell <= 4).
  [[nodiscard]] ZMoments z_moments_exact(double eps) const;

  /// Monte-Carlo moments over `z_trials` random perturbation vectors, with
  /// nu_z(G) computed exactly per z.
  [[nodiscard]] ZMoments z_moments_mc(double eps, std::size_t z_trials,
                                      Rng& rng) const;

 private:
  SampleTupleCodec codec_;
  BooleanCubeFunction g_;
};

}  // namespace duti
