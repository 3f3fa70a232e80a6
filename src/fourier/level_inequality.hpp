// The level inequality of Kahn-Kalai-Linial (the paper's Lemma 5.4):
// for f : {-1,1}^n -> {0,1} with mean mu, any level r >= 1 and delta > 0,
//
//     sum_{|S| <= r} f_hat(S)^2  <=  delta^{-r} * mu^{2/(1+delta)}.
//
// (Proof via hypercontractivity: ||T_rho f||_2^2 <= ||f||_{1+rho^2}^2 with
// rho = sqrt(delta).) This is the engine behind the AND-rule lower bound:
// highly biased message bits have tiny low-level Fourier weight, hence
// carry even less information about the samples.
#pragma once

#include "fourier/boolean_function.hpp"

namespace duti {

/// The right-hand side delta^{-r} mu^{2/(1+delta)} at the delta minimizing
/// it for given (mu, r), found by golden-section search over (0, 1]; returns
/// the minimized bound value.
[[nodiscard]] double kkl_level_bound_optimized(double mu, unsigned r);

/// Left-hand side: total Fourier weight of f on levels 0..r.
/// (Includes the empty set, as in the lemma statement.)
[[nodiscard]] double level_weight_up_to(const BooleanCubeFunction& f,
                                        unsigned r);

}  // namespace duti
