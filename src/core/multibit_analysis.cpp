#include "core/multibit_analysis.hpp"

#include <cmath>

#include "core/claim31.hpp"
#include "core/divergence.hpp"
#include "util/error.hpp"

namespace duti {

MultibitMessageAnalysis::MultibitMessageAnalysis(
    SampleTupleCodec codec, unsigned r,
    std::function<std::uint32_t(std::uint64_t)> message)
    : codec_(codec), r_(r), message_(std::move(message)) {
  require(r_ >= 1 && r_ <= 20, "MultibitMessageAnalysis: r in [1,20]");
  require(static_cast<bool>(message_),
          "MultibitMessageAnalysis: null message function");
}

const std::vector<std::uint32_t>& MultibitMessageAnalysis::symbols() const {
  if (symbols_.empty()) {  // a codec has at least two tuples
    std::vector<std::uint32_t> table(codec_.num_tuples());
    for (std::uint64_t t = 0; t < table.size(); ++t) {
      table[t] = message_(t);
      require(table[t] < num_symbols(),
              "MultibitMessageAnalysis: message symbol out of range");
    }
    symbols_ = std::move(table);
  }
  return symbols_;
}

const std::vector<double>& MultibitMessageAnalysis::uniform_pushforward()
    const {
  if (uniform_push_.empty()) {
    const std::vector<std::uint32_t>& symbol_of = symbols();
    const double per_tuple = 1.0 / static_cast<double>(symbol_of.size());
    uniform_push_.assign(num_symbols(), 0.0);
    for (const std::uint32_t s : symbol_of) uniform_push_[s] += per_tuple;
  }
  return uniform_push_;
}

std::vector<double> MultibitMessageAnalysis::nu_z_pushforward(
    const NuZ& nu) const {
  require(nu.domain().ell() == codec_.domain().ell(),
          "nu_z_pushforward: domain mismatch");
  const std::vector<std::uint32_t>& symbol_of = symbols();
  const NuZqPmf pmf(codec_, nu);
  std::vector<double> push(num_symbols(), 0.0);
  for (std::uint64_t t = 0; t < symbol_of.size(); ++t) {
    push[symbol_of[t]] += pmf(t);
  }
  return push;
}

double MultibitMessageAnalysis::divergence_given_z(const NuZ& nu) const {
  return kl_pmf(nu_z_pushforward(nu), uniform_pushforward());
}

double MultibitMessageAnalysis::expected_divergence_exact(double eps) const {
  const unsigned ell = codec_.domain().ell();
  require(ell <= 4, "expected_divergence_exact: ell <= 4");
  const std::uint64_t side = codec_.domain().side_size();
  const std::uint64_t num_z = 1ULL << side;
  double acc = 0.0;
  for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
    PerturbationVector z(ell);
    for (std::uint64_t x = 0; x < side; ++x) {
      z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
    }
    acc += divergence_given_z(NuZ(codec_.domain(), z, eps));
  }
  return acc / static_cast<double>(num_z);
}

double MultibitMessageAnalysis::full_tuple_divergence_exact(
    const SampleTupleCodec& codec, double eps) {
  const unsigned ell = codec.domain().ell();
  require(ell <= 4, "full_tuple_divergence_exact: ell <= 4");
  const std::uint64_t side = codec.domain().side_size();
  const std::uint64_t num_z = 1ULL << side;
  const double uniform_pmf =
      1.0 / static_cast<double>(codec.num_tuples());
  double acc = 0.0;
  for (std::uint64_t zbits = 0; zbits < num_z; ++zbits) {
    PerturbationVector z(ell);
    for (std::uint64_t x = 0; x < side; ++x) {
      z.set_sign(x, ((zbits >> x) & 1ULL) ? -1 : +1);
    }
    const NuZqPmf pmf(codec, NuZ(codec.domain(), z, eps));
    double kl = 0.0;
    for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
      const double p = pmf(t);
      if (p > 0.0) kl += p * std::log2(p / uniform_pmf);
    }
    acc += kl;
  }
  return acc / static_cast<double>(num_z);
}

}  // namespace duti
