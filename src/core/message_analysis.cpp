#include "core/message_analysis.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "core/claim31.hpp"
#include "core/divergence.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

constexpr const char* kOneBitOnly =
    "MessageAnalysis: mu, nu_z, var and the z-moments need r = 1";

// G's values as a one-bit message, after checking G's shape.
MessageAnalysis::Message boolean_message(const SampleTupleCodec& codec,
                                         const BooleanCubeFunction& g) {
  require(g.num_vars() == codec.total_bits(),
          "MessageAnalysis: G must have (ell+1)*q variables");
  require(g.is_boolean01(0.0), "MessageAnalysis: G must be {0,1}-valued");
  return [&g](std::uint64_t t) {
    return static_cast<std::uint32_t>(g.values()[t]);
  };
}

// Adds D(z) = nu_z(G) - mu(G) for one z to the running moments.
void add_difference(ZMoments& m, double d) {
  m.mean_diff += d;
  m.mean_abs_diff += std::fabs(d);
  m.second_moment += d * d;
}

ZMoments averaged(ZMoments m, double count) {
  const double inv = 1.0 / count;
  m.mean_diff *= inv;
  m.mean_abs_diff *= inv;
  m.second_moment *= inv;
  return m;
}

}  // namespace

std::uint64_t for_each_z(const CubeDomain& domain, double eps,
                         const std::function<void(const NuZ&)>& visit) {
  const unsigned ell = domain.ell();
  require(ell <= 4, "for_each_z: 2^(2^ell) perturbation vectors; ell <= 4");
  const std::uint64_t side = domain.side_size();
  const std::uint64_t num_z = 1ULL << side;
  for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
    PerturbationVector z(ell);
    for (std::uint64_t x = 0; x < side; ++x) {
      z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
    }
    visit(NuZ(domain, std::move(z), eps));
  }
  return num_z;
}

MessageAnalysis::MessageAnalysis(SampleTupleCodec codec, unsigned r,
                                 const Message& message)
    : codec_(codec), r_(r) {
  require(r_ >= 1 && r_ <= 20, "MessageAnalysis: r in [1,20]");
  require(static_cast<bool>(message), "MessageAnalysis: null message");
  // A counting sort of the tuples by symbol keeps each group increasing.
  std::vector<std::uint32_t> symbol_of(codec_.num_tuples());
  group_start_.assign(num_symbols() + 1, 0);
  for (std::uint64_t t = 0; t < symbol_of.size(); ++t) {
    symbol_of[t] = message(t);
    require(symbol_of[t] < num_symbols(),
            "MessageAnalysis: message symbol out of range");
    ++group_start_[symbol_of[t] + 1];
  }
  for (std::uint64_t s = 0; s < num_symbols(); ++s) {
    group_start_[s + 1] += group_start_[s];
  }
  std::vector<std::size_t> next(group_start_.begin(), group_start_.end() - 1);
  by_symbol_.resize(symbol_of.size());
  for (std::uint64_t t = 0; t < symbol_of.size(); ++t) {
    by_symbol_[next[symbol_of[t]]++] = static_cast<std::uint32_t>(t);
  }
  uniform_push_ = pushforward(std::vector<double>(
      symbol_of.size(), 1.0 / static_cast<double>(symbol_of.size())));
}

MessageAnalysis::MessageAnalysis(SampleTupleCodec codec,
                                 const BooleanCubeFunction& g)
    : MessageAnalysis(codec, 1, boolean_message(codec, g)) {}

std::vector<double> MessageAnalysis::pushforward(
    std::span<const double> tuple_law) const {
  require(tuple_law.size() == by_symbol_.size(),
          "pushforward: need one mass per tuple");
  std::vector<double> push(num_symbols());
  for (std::uint64_t s = 0; s < push.size(); ++s) {
    double mass = 0.0;
    for (std::size_t i = group_start_[s]; i < group_start_[s + 1]; ++i) {
      mass += tuple_law[by_symbol_[i]];
    }
    push[s] = mass;
  }
  return push;
}

double MessageAnalysis::mu() const {
  require(r_ == 1, kOneBitOnly);
  return uniform_push_[1];
}

double MessageAnalysis::nu_z(const NuZ& nu) const {
  require(r_ == 1, kOneBitOnly);
  const NuZqPmf nu_q(codec_, nu);
  double mass = 0.0;
  for (std::size_t i = group_start_[1]; i < group_start_[2]; ++i) {
    mass += nu_q(by_symbol_[i]);
  }
  return mass;
}

double MessageAnalysis::variance() const {
  const double m = mu();
  return m - m * m;
}

ZMoments MessageAnalysis::z_moments_exact(double eps) const {
  const double mu_g = mu();
  ZMoments out;
  const std::uint64_t num_z =
      for_each_z(codec_.domain(), eps, [&](const NuZ& nu) {
        add_difference(out, nu_z(nu) - mu_g);
      });
  return averaged(out, static_cast<double>(num_z));
}

ZMoments MessageAnalysis::z_moments_mc(double eps, std::size_t z_trials,
                                       Rng& rng) const {
  require(z_trials >= 1, "z_moments_mc: need at least one z trial");
  const double mu_g = mu();
  ZMoments out;
  for (std::size_t t = 0; t < z_trials; ++t) {
    const NuZ nu(codec_.domain(),
                 PerturbationVector::random(codec_.domain().ell(), rng), eps);
    add_difference(out, nu_z(nu) - mu_g);
  }
  return averaged(out, static_cast<double>(z_trials));
}

double MessageAnalysis::expected_divergence_exact(double eps) const {
  return expected_divergences_exact(std::span(this, 1), eps)[0];
}

std::vector<double> expected_divergences_exact(
    std::span<const MessageAnalysis> analyses, double eps) {
  require(!analyses.empty(), "expected_divergences_exact: no analysis");
  const SampleTupleCodec& codec = analyses[0].codec();
  for (const MessageAnalysis& a : analyses) {
    require(a.codec().domain().ell() == codec.domain().ell() &&
                a.codec().q() == codec.q(),
            "expected_divergences_exact: analyses must share one codec");
  }
  std::vector<double> acc(analyses.size(), 0.0);
  std::vector<double> tuple_mass(codec.num_tuples());
  const std::uint64_t num_z =
      for_each_z(codec.domain(), eps, [&](const NuZ& nu) {
        const NuZqPmf nu_q(codec, nu);
        for (std::uint64_t t = 0; t < tuple_mass.size(); ++t) {
          tuple_mass[t] = nu_q(t);
        }
        for (std::size_t i = 0; i < analyses.size(); ++i) {
          acc[i] += kl_pmf(analyses[i].pushforward(tuple_mass),
                           analyses[i].uniform_pushforward());
        }
      });
  for (double& d : acc) d /= static_cast<double>(num_z);
  return acc;
}

// duti-lint: allow(orphan-function) -- states Lemma 4.1's Fourier-side
// difference, which tests/test_message_analysis.cpp checks against
// nu_z(G) - mu(G)
double lemma41_fourier_difference(const SampleTupleCodec& codec,
                                  const BooleanCubeFunction& g,
                                  const NuZ& nu) {
  require(g.num_vars() == codec.total_bits(),
          "lemma41_fourier_difference: G must have (ell+1)*q variables");
  require(nu.domain().ell() == codec.domain().ell(),
          "lemma41_fourier_difference: domain mismatch");
  const unsigned q = codec.q();
  const unsigned ell = codec.domain().ell();
  const double eps = nu.eps();
  const std::uint64_t s_mask_all = codec.s_bits_mask();
  const std::uint64_t side = codec.domain().side_size();

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
    const BooleanCubeFunction gx = g.restrict_vars(
        ~s_mask_all & (codec.num_tuples() - 1), fixed_values);
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
  const auto n = static_cast<double>(codec.domain().universe_size());
  const double scale = std::pow(2.0, static_cast<double>(q)) /
                       std::pow(n, static_cast<double>(q));
  return scale * total;
}

}  // namespace duti
