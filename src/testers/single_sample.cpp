#include "testers/single_sample.hpp"

#include <cmath>

#include "testers/collision.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace duti {

SharedHash::SharedHash(unsigned domain_bits, std::uint64_t key)
    : bits_(domain_bits) {
  require(domain_bits >= 1 && domain_bits <= 63,
          "SharedHash: domain_bits in [1,63]");
  mask_ = (1ULL << bits_) - 1;
  SplitMix64 sm(key);
  mul1_ = sm.next() | 1ULL;  // odd => invertible mod 2^b
  mul2_ = sm.next() | 1ULL;
  shift1_ = 1 + static_cast<unsigned>(sm.next() % std::max(1U, bits_ - 1));
  shift2_ = 1 + static_cast<unsigned>(sm.next() % std::max(1U, bits_ - 1));
}

std::uint64_t SharedHash::permute(std::uint64_t x) const noexcept {
  x = (x * mul1_) & mask_;
  x ^= (x >> shift1_);  // xor with right shift is invertible
  x = (x * mul2_) & mask_;
  x ^= (x >> shift2_);
  return x & mask_;
}

std::uint64_t SharedHash::bucket(std::uint64_t x, unsigned r) const noexcept {
  return permute(x) >> (bits_ - r);
}

SingleSampleHashTester::SingleSampleHashTester(Config cfg,
                                               std::uint64_t shared_seed)
    : cfg_(cfg),
      hash_(cfg.n > 1 ? floor_log2(cfg.n) : 1, shared_seed),
      threshold_(0.0) {
  require(cfg_.n >= 2 && is_pow2(cfg_.n),
          "SingleSampleHashTester: n must be a power of two >= 2");
  require(cfg_.k >= 2, "SingleSampleHashTester: need k >= 2 nodes");
  require(cfg_.eps > 0.0 && cfg_.eps <= 1.0,
          "SingleSampleHashTester: eps in (0,1]");
  require(cfg_.r >= 1 && cfg_.r <= hash_.domain_bits(),
          "SingleSampleHashTester: r must be in [1, log2(n)]");
  // Under uniform input the buckets are exactly uniform on 2^r; the pair
  // collision count has mean C(k,2)/2^r and variance C(k,2)(1/2^r)(1-1/2^r)
  // (pairs sharing a node are uncorrelated under uniform). One-sided
  // threshold at mean + sd.
  const double buckets = std::ldexp(1.0, static_cast<int>(cfg_.r));
  const double kd = static_cast<double>(cfg_.k);
  const double pairs = 0.5 * kd * (kd - 1.0);
  const double mean_u = pairs / buckets;
  const double var_u = pairs * (1.0 / buckets) * (1.0 - 1.0 / buckets);
  threshold_ = mean_u + std::sqrt(var_u);
}

bool SingleSampleHashTester::referee_accept(
    const std::vector<std::uint64_t>& buckets) const {
  require(buckets.size() == cfg_.k,
          "SingleSampleHashTester: expected one bucket per node");
  return static_cast<double>(collision_pairs(buckets, 1ULL << cfg_.r)) <
         threshold_;
}

bool SingleSampleHashTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "SingleSampleHashTester: domain size mismatch");
  std::vector<std::uint64_t> buckets(cfg_.k);
  for (auto& b : buckets) {
    b = hash_.bucket(source.sample(rng), cfg_.r);
  }
  return referee_accept(buckets);
}

}  // namespace duti
