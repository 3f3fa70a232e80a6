#include "core/message_analysis.hpp"

#include <bit>
#include <cmath>
#include <vector>

#include "core/claim31.hpp"
#include "util/error.hpp"

namespace duti {

MessageAnalysis::MessageAnalysis(SampleTupleCodec codec, BooleanCubeFunction g)
    : codec_(codec), g_(std::move(g)) {
  require(g_.num_vars() == codec_.total_bits(),
          "MessageAnalysis: G must have (ell+1)*q variables");
  require(g_.is_boolean01(), "MessageAnalysis: G must be {0,1}-valued");
}

double MessageAnalysis::nu_z_exact(const NuZ& nu) const {
  require(nu.domain().ell() == codec_.domain().ell(),
          "nu_z_exact: domain mismatch");
  const NuZqPmf pmf(codec_, nu);
  double acc = 0.0;
  for (std::uint64_t t = 0; t < codec_.num_tuples(); ++t) {
    const double gv = g_.value(t);
    if (gv != 0.0) acc += gv * pmf(t);
  }
  return acc;
}

// duti-lint: allow(orphan-function) -- states Lemma 4.1's Fourier-side
// difference, which tests/test_message_analysis.cpp checks against
// nu_z(G) - mu(G)
double MessageAnalysis::lemma41_fourier_difference(const NuZ& nu) const {
  require(nu.domain().ell() == codec_.domain().ell(),
          "lemma41_fourier_difference: domain mismatch");
  const unsigned q = codec_.q();
  const unsigned ell = codec_.domain().ell();
  const double eps = nu.eps();
  const std::uint64_t s_mask_all = codec_.s_bits_mask();
  const std::uint64_t side = codec_.domain().side_size();

  // Enumerate all x assignments: each of the q samples gets a cube point.
  // For each, restrict G to the s-bits and take Fourier coefficients over
  // the q-dimensional cube of sign vectors.
  double total = 0.0;
  std::vector<std::uint64_t> xs(q);
  const std::uint64_t num_x = [&] {
    std::uint64_t v = 1;
    for (unsigned j = 0; j < q; ++j) v *= side;
    return v;
  }();
  for (std::uint64_t xi = 0; xi < num_x; ++xi) {
    std::uint64_t rest = xi;
    std::uint64_t fixed_values = 0;
    for (unsigned j = 0; j < q; ++j) {
      xs[j] = rest % side;
      rest /= side;
      fixed_values |= xs[j] << (j * (ell + 1));
    }
    const BooleanCubeFunction gx =
        g_.restrict_vars(~s_mask_all & (codec_.num_tuples() - 1),
                         fixed_values);
    const auto& coeffs = gx.fourier();
    for (std::uint64_t s_set = 1; s_set < coeffs.size(); ++s_set) {
      double term = std::pow(eps, std::popcount(s_set)) * coeffs[s_set];
      for (unsigned j = 0; j < q; ++j) {
        if ((s_set >> j) & 1ULL) {
          term *= static_cast<double>(nu.z().sign(xs[j]));
        }
      }
      total += term;
    }
  }
  const auto n = static_cast<double>(codec_.domain().universe_size());
  const double scale = std::pow(2.0, static_cast<double>(q)) /
                       std::pow(n, static_cast<double>(q));
  return scale * total;
}

ZMoments MessageAnalysis::z_moments_exact(double eps) const {
  const unsigned ell = codec_.domain().ell();
  require(ell <= 4, "z_moments_exact: 2^(2^ell) enumerations; ell <= 4");
  const std::uint64_t side = codec_.domain().side_size();
  const std::uint64_t num_z = 1ULL << side;
  const double mu_g = mu();
  ZMoments out;
  for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
    PerturbationVector z(ell);
    for (std::uint64_t x = 0; x < side; ++x) {
      z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
    }
    const NuZ nu(codec_.domain(), z, eps);
    const double d = nu_z_exact(nu) - mu_g;
    out.mean_diff += d;
    out.mean_abs_diff += std::fabs(d);
    out.second_moment += d * d;
  }
  const auto inv = 1.0 / static_cast<double>(num_z);
  out.mean_diff *= inv;
  out.mean_abs_diff *= inv;
  out.second_moment *= inv;
  return out;
}

ZMoments MessageAnalysis::z_moments_mc(double eps, std::size_t z_trials,
                                       Rng& rng) const {
  require(z_trials >= 1, "z_moments_mc: need at least one z trial");
  const double mu_g = mu();
  ZMoments out;
  for (std::size_t t = 0; t < z_trials; ++t) {
    const auto z = PerturbationVector::random(codec_.domain().ell(), rng);
    const NuZ nu(codec_.domain(), z, eps);
    const double d = nu_z_exact(nu) - mu_g;
    out.mean_diff += d;
    out.mean_abs_diff += std::fabs(d);
    out.second_moment += d * d;
  }
  const auto inv = 1.0 / static_cast<double>(z_trials);
  out.mean_diff *= inv;
  out.mean_abs_diff *= inv;
  out.second_moment *= inv;
  return out;
}

}  // namespace duti
