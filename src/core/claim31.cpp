#include "core/claim31.hpp"

#include <cmath>

namespace duti {

// duti-lint: allow(orphan-function) -- the direct product that
// tests/test_claim31.cpp checks Claim 3.1 and NuZqPmf against
double nu_zq_pmf_direct(const SampleTupleCodec& codec, const NuZ& nu,
                        std::uint64_t packed) {
  require(codec.domain().ell() == nu.domain().ell(),
          "nu_zq_pmf_direct: domain mismatch");
  double p = 1.0;
  for (unsigned j = 0; j < codec.q(); ++j) {
    p *= nu.pmf(codec.element(packed, j));
  }
  return p;
}

NuZqPmf::NuZqPmf(const SampleTupleCodec& codec, const NuZ& nu)
    : codec_(codec) {
  require(codec.domain().ell() == nu.domain().ell(),
          "NuZqPmf: domain mismatch");
  element_pmf_.resize(codec.domain().universe_size());
  for (std::uint64_t e = 0; e < element_pmf_.size(); ++e) {
    element_pmf_[e] = nu.pmf(e);
  }
}

// duti-lint: allow(orphan-function) -- states Claim 3.1's character
// expansion, which tests/test_claim31.cpp checks on every tuple
double nu_zq_pmf_expansion(const SampleTupleCodec& codec, const NuZ& nu,
                           std::uint64_t packed) {
  require(codec.domain().ell() == nu.domain().ell(),
          "nu_zq_pmf_expansion: domain mismatch");
  const unsigned q = codec.q();
  const double eps = nu.eps();
  double total = 0.0;
  for (std::uint64_t s_set = 0; s_set < (1ULL << q); ++s_set) {
    // chi_S(s) = prod_{j in S} s_j, and the z-product over S.
    double term = std::pow(eps, std::popcount(s_set));
    for (unsigned j = 0; j < q; ++j) {
      if ((s_set >> j) & 1ULL) {
        term *= static_cast<double>(codec.s_of(packed, j));
        term *= static_cast<double>(nu.z().sign(codec.x_of(packed, j)));
      }
    }
    total += term;
  }
  const auto n = static_cast<double>(codec.domain().universe_size());
  return total / std::pow(n, static_cast<double>(q));
}

}  // namespace duti
