#include "sim/protocol_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dist/generators.hpp"
#include "sim/convergecast.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "sweep_specs.hpp"
#include "testers/asymmetric.hpp"
#include "testers/calibration.hpp"
#include "testers/centralized.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/multibit.hpp"
#include "testers/robust_rules.hpp"
#include "testers/tree_tester.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

// Every replaceable operator new counts into g_allocs, so a test can assert
// that a trial loop allocates nothing; every operator delete frees what they
// return.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  align = std::max(align, alignof(std::max_align_t));
  return posix_memalign(&p, align, size ? size : 1) == 0 ? p : nullptr;
}
void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into the deletes below, GCC reads the free() as
// freeing what operator new returned (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
using Align = std::align_val_t;
using NoThrow = std::nothrow_t;
}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_or_throw(n, 0); }
void* operator new(std::size_t n, Align a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, Align a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const NoThrow&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const NoThrow&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, Align a, const NoThrow&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, Align a, const NoThrow&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, Align) noexcept { release(p); }
void operator delete[](void* p, Align) noexcept { release(p); }
void operator delete(void* p, std::size_t, Align) noexcept { release(p); }
void operator delete[](void* p, std::size_t, Align) noexcept { release(p); }
void operator delete(void* p, const NoThrow&) noexcept { release(p); }
void operator delete[](void* p, const NoThrow&) noexcept { release(p); }
void operator delete(void* p, Align, const NoThrow&) noexcept { release(p); }
void operator delete[](void* p, Align, const NoThrow&) noexcept { release(p); }

namespace duti {
namespace {

std::uint64_t naive_pairs(std::span<const std::uint64_t> samples) {
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a < samples.size(); ++a) {
    for (std::size_t b = a + 1; b < samples.size(); ++b) {
      if (samples[a] == samples[b]) ++pairs;
    }
  }
  return pairs;
}

std::uint64_t naive_distinct(std::span<const std::uint64_t> samples) {
  std::uint64_t distinct = 0;
  for (std::size_t a = 0; a < samples.size(); ++a) {
    bool seen = false;
    for (std::size_t b = 0; b < a; ++b) seen = seen || samples[b] == samples[a];
    if (!seen) ++distinct;
  }
  return distinct;
}

TEST(CollisionStatistics, MatchNaiveCountsOnBothPlanes) {
  Rng rng(7);
  // Up to kMaxTallyPlaneDomain: the tally plane; above it: the sort
  // fallback. The cap is checked at N-1, N and N+1.
  for (const std::uint64_t domain :
       {std::uint64_t{8}, std::uint64_t{512}, kMaxTallyPlaneDomain - 1,
        kMaxTallyPlaneDomain, kMaxTallyPlaneDomain + 1}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::uint64_t> samples(32);
      // Bias into a small range so collisions actually occur, and give the
      // top cell domain - 1 zero to three of the samples.
      for (auto& s : samples) s = rng.next_below(std::min<std::uint64_t>(domain, 16));
      for (int i = 0; i < rep % 4; ++i) {
        samples[static_cast<std::size_t>(i)] = domain - 1;
      }
      EXPECT_EQ(collision_pairs(samples, domain), naive_pairs(samples))
          << "domain=" << domain;
      EXPECT_EQ(distinct_values(samples, domain), naive_distinct(samples))
          << "domain=" << domain;
    }
    EXPECT_EQ(collision_pairs({}, domain), 0u);
    EXPECT_EQ(distinct_values({}, domain), 0u);
  }
}

// --- count_pairs: the per-player kernel ------------------------------------

/// Forwards sample() and sample_many to a uniform source and overrides
/// nothing else, so count_pairs takes SampleSource's default.
class ForwardingSource final : public SampleSource {
 public:
  explicit ForwardingSource(std::uint64_t n) : inner_(n) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return inner_.sample(rng);
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return inner_.domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override { return 0.0; }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    inner_.sample_many(rng, count, out);
  }

 private:
  UniformSource inner_;
};

struct NamedSource {
  std::string name;
  std::unique_ptr<SampleSource> source;
  bool stops_drawing;  // overrides count_pairs with the fused kernel
};

std::vector<NamedSource> pair_count_sources() {
  Rng rng(404);
  std::vector<NamedSource> out;
  out.push_back({"uniform 4096", std::make_unique<UniformSource>(4096), true});
  // 1000 is no power of two, so next_below rejects some raws.
  out.push_back({"uniform 1000", std::make_unique<UniformSource>(1000), true});
  out.push_back({"paninski 4096",
                 workloads::paninski_far_factory(4096, 0.25)(rng), true});
  out.push_back({"nu_z ell=6", workloads::nu_z_far_factory(6, 0.5)(rng), true});
  out.push_back({"zipf 512", std::make_unique<DistributionSource>(
                                 gen::zipf(512, 1.0)),
                 true});
  out.push_back(
      {"forwarding 1000", std::make_unique<ForwardingSource>(1000), false});
  return out;
}

/// The naive pair count of the shortest prefix of `samples` whose count
/// exceeds `bound` (all of them when none does), and that prefix's length.
std::pair<std::uint64_t, std::size_t> naive_prefix_pairs(
    std::span<const std::uint64_t> samples, std::uint64_t bound) {
  std::uint64_t pairs = 0;
  for (std::size_t len = 1; len <= samples.size(); ++len) {
    // The pairs the len-th sample closes with the ones before it.
    for (std::size_t a = 0; a + 1 < len; ++a) {
      if (samples[a] == samples[len - 1]) ++pairs;
    }
    if (pairs > bound) return {pairs, len};
  }
  return {pairs, samples.size()};
}

TEST(CountPairs, NoBoundCountsEveryDrawOfSampleMany) {
  for (const NamedSource& s : pair_count_sources()) {
    for (const unsigned q : {1u, 2u, 40u, 312u}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng drawn(derive_seed(seed, q));
        Rng counted(derive_seed(seed, q));
        std::vector<std::uint64_t> samples;
        s.source->sample_many(drawn, q, samples);
        EXPECT_EQ(s.source->count_pairs(counted, q, kNoPairBound),
                  naive_pairs(samples))
            << s.name << " q=" << q << " seed=" << seed;
        EXPECT_EQ(counted.state(), drawn.state())
            << s.name << " q=" << q << " seed=" << seed;
      }
    }
  }
}

TEST(CountPairs, BoundStopsAtTheFirstDrawPastIt) {
  std::size_t fired = 0;
  for (const NamedSource& s : pair_count_sources()) {
    for (const unsigned q : {40u, 312u}) {
      for (const std::uint64_t bound : {0u, 1u, 3u, 11u, 40u}) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
          Rng drawn(derive_seed(seed, q, bound));
          std::vector<std::uint64_t> samples;
          s.source->sample_many(drawn, q, samples);
          const auto [want, len] = naive_prefix_pairs(samples, bound);
          Rng counted(derive_seed(seed, q, bound));
          EXPECT_EQ(s.source->count_pairs(counted, q, bound), want)
              << s.name << " q=" << q << " bound=" << bound
              << " seed=" << seed;
          if (len == q) {
            // Nothing to skip: the stream ends where sample_many's does.
            EXPECT_EQ(counted.state(), drawn.state()) << s.name;
            continue;
          }
          ++fired;
          // A fired bound: the fused kernel made exactly the prefix's
          // draws, the default made all q.
          Rng prefix(derive_seed(seed, q, bound));
          s.source->sample_many(prefix, s.stops_drawing ? len : q, samples);
          EXPECT_EQ(counted.state(), prefix.state())
              << s.name << " q=" << q << " bound=" << bound
              << " seed=" << seed;
          if (s.stops_drawing) {
            EXPECT_NE(counted.state(), drawn.state()) << s.name;
          }
        }
      }
    }
  }
  EXPECT_GT(fired, 100u);
}

TEST(CountPairs, LeavesThePlaneCleanAndChecksTheDomain) {
  // After a stopped count the next count on the same worker starts from an
  // all-zero plane: interleave bounded and unbounded counts.
  const UniformSource uniform(64);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng a(seed);
    Rng b(seed);
    (void)uniform.count_pairs(a, 40, 0);
    (void)uniform.count_pairs(b, 40, 0);
    std::vector<std::uint64_t> samples;
    uniform.sample_many(b, 40, samples);
    EXPECT_EQ(uniform.count_pairs(a, 40, kNoPairBound), naive_pairs(samples));
  }
  // A source drawing outside its domain is rejected, naming the sample,
  // and leaves the plane clean.
  class Outside final : public SampleSource {
   public:
    std::uint64_t sample(Rng& rng) const override { return rng() % 2 + 7; }
    std::uint64_t domain_size() const override { return 8; }
    double l1_from_uniform() const override { return 0.0; }
  };
  Rng rng(3);
  EXPECT_THROW((void)Outside().count_pairs(rng, 64, kNoPairBound),
               InvalidArgument);
  const std::vector<std::uint64_t> sevens(5, 7);
  EXPECT_EQ(collision_pairs(sevens, 8), 10u);
}

TEST(CountPairs, DomainsAboveThePlaneCapIgnoreTheBound) {
  // Above kMaxTallyPlaneDomain the count sorts all q draws, bound or not.
  const UniformSource wide(kMaxTallyPlaneDomain + 1);
  Rng rng(8);
  const std::unique_ptr<SampleSource> nu =
      workloads::nu_z_far_factory(22, 0.5)(rng);
  ASSERT_GT(nu->domain_size(), kMaxTallyPlaneDomain);
  for (const SampleSource* src : {static_cast<const SampleSource*>(&wide),
                                  static_cast<const SampleSource*>(nu.get())}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng drawn(seed);
      Rng counted(seed);
      std::vector<std::uint64_t> samples;
      src->sample_many(drawn, 3000, samples);
      EXPECT_EQ(src->count_pairs(counted, 3000, 0), naive_pairs(samples));
      EXPECT_EQ(counted.state(), drawn.state());
    }
  }
}

// --- The reference runner ---------------------------------------------------
//
// The protocol model written out plainly, independent of the plane's
// buffers and tally: player j's stream is make_rng(rng(), j), it draws
// qs[j] samples through the source's sample_many, and its vote sees the
// O(q^2) naive pair count and the post-sampling stream. Each tester's
// vote and referee verdict below are rewritten from its public accessors,
// so they restate the rule rather than reuse the tester's vote functor.

using ReferenceVote =
    std::function<Message(unsigned j, std::uint64_t pairs, Rng& rng)>;

std::vector<Message> reference_messages(const SampleSource& source, Rng& rng,
                                        const std::vector<unsigned>& qs,
                                        const ReferenceVote& vote) {
  std::vector<Message> messages;
  std::vector<std::uint64_t> samples;
  for (unsigned j = 0; j < qs.size(); ++j) {
    Rng player_rng = make_rng(rng(), j);
    source.sample_many(player_rng, qs[j], samples);
    messages.push_back(vote(j, naive_pairs(samples), player_rng));
  }
  return messages;
}

std::uint64_t rejects_of(const std::vector<Message>& messages) {
  std::uint64_t rejects = 0;
  for (const Message& m : messages) rejects += m.as_bit() ? 0U : 1U;
  return rejects;
}

Message reference_collision_vote(double local_threshold, std::uint64_t pairs) {
  return Message::bit(!(static_cast<double>(pairs) > local_threshold));
}

struct PlaneCase {
  std::uint64_t n = 0;
  double eps = 0.5;
  std::uint64_t seed = 0;
  std::vector<unsigned> qs;
  const ProtocolBatchExecutor* executor = nullptr;
  TesterRun run;
  ReferenceVote vote;
  std::function<bool(const std::vector<Message>&)> accept;
  // FNV-1a over every trial's messages (bits, width) and verdict, recorded
  // from the retired per-player runner.
  std::uint64_t golden = 0;
};

/// 40 trials alternating the uniform source and fresh eps-far sources: the
/// plane's messages and the tester's verdict must equal the reference
/// runner's, trial by trial, and hash to the golden fingerprint.
void expect_plane_matches_reference(const PlaneCase& c) {
  Fnv64 fingerprint;
  Rng src_rng(derive_seed(c.seed, 0x50));
  for (std::uint64_t t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(c.n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(c.n, c.eps)(src_rng);
      src = far.get();
    }
    Rng rng_ref(derive_seed(c.seed, t));
    Rng rng_plane(derive_seed(c.seed, t));
    Rng rng_run(derive_seed(c.seed, t));
    const std::vector<Message> expected =
        reference_messages(*src, rng_ref, c.qs, c.vote);
    const std::vector<Message> messages = c.executor->collect(*src, rng_plane);
    ASSERT_EQ(messages.size(), expected.size());
    for (std::size_t j = 0; j < messages.size(); ++j) {
      EXPECT_EQ(messages[j].bits, expected[j].bits)
          << "trial " << t << " player " << j;
      EXPECT_EQ(messages[j].width, expected[j].width);
      fingerprint.u64(messages[j].bits).u64(messages[j].width);
    }
    const bool accept = c.run(*src, rng_run);
    EXPECT_EQ(accept, c.accept(expected)) << "trial " << t;
    fingerprint.u64(accept ? 1U : 0U);
  }
  EXPECT_EQ(fingerprint.value(), c.golden);
}

template <typename Tester>
TesterRun run_of(const Tester& tester) {
  return [&tester](const SampleSource& s, Rng& r) { return tester.run(s, r); };
}

TEST(ProtocolBatch, ThresholdTesterMatchesReference) {
  Rng calib_rng(11);
  const DistributedThresholdTester tester({512, 8, 24, 0.5}, calib_rng, 500);
  const double local_t = tester.vote().threshold();
  const std::uint64_t referee_t = tester.referee_threshold();
  PlaneCase c;
  c.n = 512;
  c.seed = 101;
  c.qs.assign(8, 24);
  c.executor = &tester.executor();
  c.run = run_of(tester);
  c.vote = [local_t](unsigned, std::uint64_t pairs, Rng&) {
    return reference_collision_vote(local_t, pairs);
  };
  c.accept = [referee_t](const std::vector<Message>& m) {
    return rejects_of(m) < referee_t;
  };
  c.golden = 0x4984f268fedfd3c4ULL;
  expect_plane_matches_reference(c);
}

TEST(ProtocolBatch, AndTesterMatchesReference) {
  const DistributedAndTester tester({256, 6, 40, 0.5});
  const double local_t = tester.vote().threshold();
  PlaneCase c;
  c.n = 256;
  c.seed = 33;
  c.qs.assign(6, 40);
  c.executor = &tester.executor();
  c.run = run_of(tester);
  c.vote = [local_t](unsigned, std::uint64_t pairs, Rng&) {
    return reference_collision_vote(local_t, pairs);
  };
  c.accept = [](const std::vector<Message>& m) { return rejects_of(m) == 0; };
  c.golden = 0xe0a4314a5a87afa5ULL;
  expect_plane_matches_reference(c);
}

TEST(ProtocolBatch, FixedThresholdTesterMatchesReference) {
  // The fixed-threshold vote consumes player randomness (the boundary
  // coin), so identity here also pins the post-sampling RNG handoff.
  constexpr std::uint64_t kT = 3;
  const FixedThresholdTester tester({256, 8, 32, 0.5}, kT);
  const std::uint64_t c_count = tester.local_count_threshold();
  const double gamma = tester.local_boundary_gamma();
  PlaneCase c;
  c.n = 256;
  c.seed = 44;
  c.qs.assign(8, 32);
  c.executor = &tester.executor();
  c.run = run_of(tester);
  c.vote = [c_count, gamma](unsigned, std::uint64_t pairs, Rng& rng) {
    bool reject = pairs > c_count;
    if (!reject && pairs == c_count) reject = rng.next_bernoulli(gamma);
    return Message::bit(!reject);
  };
  c.accept = [](const std::vector<Message>& m) {
    return rejects_of(m) < kT;
  };
  c.golden = 0x9ee0ec944e730784ULL;
  expect_plane_matches_reference(c);
}

TEST(ProtocolBatch, MultibitTesterMatchesReference) {
  constexpr unsigned kR = 4;
  Rng calib_rng(55);
  const MultibitSumTester tester({256, 6, 48, 0.5}, kR, calib_rng, 500);
  const std::uint64_t offset = MultibitSumTester::window_offset(256, 48, kR);
  const double sum_t = tester.sum_threshold();
  PlaneCase c;
  c.n = 256;
  c.seed = 55;
  c.qs.assign(6, 48);
  c.executor = &tester.executor();
  c.run = run_of(tester);
  c.vote = [offset](unsigned, std::uint64_t pairs, Rng&) {
    return Message{MultibitSumTester::encode_count(pairs, kR, offset), kR};
  };
  c.accept = [sum_t](const std::vector<Message>& m) {
    double total = 0.0;
    for (const Message& x : m) total += static_cast<double>(x.bits);
    return total < sum_t;
  };
  c.golden = 0xe1a8a5957de1f4a5ULL;
  expect_plane_matches_reference(c);
}

TEST(ProtocolBatch, AsymmetricTesterMatchesReference) {
  const std::uint64_t n = 256;
  Rng calib_rng(66);
  const AsymmetricRateTester tester(n, {1.0, 2.0, 4.0, 8.0}, 8.0, calib_rng,
                                    200);
  std::vector<double> local_t;
  for (const unsigned q : tester.qs()) {
    local_t.push_back(
        expected_collision_pairs_uniform(static_cast<double>(n), q));
  }
  const double referee_t = tester.referee_threshold();
  PlaneCase c;
  c.n = n;
  c.seed = 66;
  c.qs = tester.qs();
  c.executor = &tester.executor();
  c.run = run_of(tester);
  c.vote = [local_t](unsigned j, std::uint64_t pairs, Rng&) {
    return reference_collision_vote(local_t[j], pairs);
  };
  c.accept = [referee_t](const std::vector<Message>& m) {
    return static_cast<double>(rejects_of(m)) < referee_t;
  };
  c.golden = 0x31c5b4efcba66b85ULL;
  expect_plane_matches_reference(c);
}

TEST(ProtocolBatch, RunStopsOnTheFullCollectVerdict) {
  // run(source, rng, bar) against the verdict of every player's message,
  // for each plane tester's executor (multibit's low bit included), over
  // the uniform source and fresh far sources, at bars 1, k and k + 1; the
  // run stream must move exactly k draws whatever the bar.
  Rng calib(21);
  const DistributedThresholdTester threshold({256, 8, 24, 0.5}, calib, 300);
  const DistributedAndTester and_tester({256, 8, 24, 0.5});
  const FixedThresholdTester fixed({256, 8, 24, 0.5}, 2);
  const MultibitSumTester multibit({256, 8, 24, 0.5}, 3, calib, 300);
  const AsymmetricRateTester asymmetric(256, {1, 2, 3, 4, 5, 6, 7, 8}, 6.0,
                                        calib, 100);
  const std::vector<std::pair<const char*, const ProtocolBatchExecutor*>>
      executors = {{"threshold", &threshold.executor()},
                   {"and", &and_tester.executor()},
                   {"fixed", &fixed.executor()},
                   {"multibit", &multibit.executor()},
                   {"asymmetric", &asymmetric.executor()}};
  const std::uint64_t k = 8;
  const UniformSource uniform(256);
  Rng far_rng(22);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& [name, executor] : executors) {
    for (std::uint64_t t = 0; t < 30; ++t) {
      std::unique_ptr<SampleSource> far;
      const SampleSource* src = &uniform;
      if (t % 2 == 1) {
        far = workloads::paninski_far_factory(256, 0.5)(far_rng);
        src = far.get();
      }
      Rng collect_rng(derive_seed(23, t));
      std::uint64_t rejects = 0;
      for (const Message& m : executor->collect(*src, collect_rng)) {
        if ((m.bits & 1U) == 0) ++rejects;
      }
      for (const std::uint64_t bar : {std::uint64_t{1}, k, k + 1}) {
        Rng run_rng(derive_seed(23, t));
        const bool accept = executor->run(*src, run_rng, bar);
        EXPECT_EQ(accept, rejects < bar)
            << name << " trial " << t << " bar " << bar;
        (accept ? accepted : rejected) += 1;
        Rng k_draws(derive_seed(23, t));
        for (std::uint64_t j = 0; j < k; ++j) (void)k_draws();
        EXPECT_EQ(run_rng.state(), k_draws.state())
            << name << " trial " << t << " bar " << bar;
        EXPECT_EQ(run_rng.state(), collect_rng.state()) << name;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ProtocolBatch, FixedThresholdTieCoinSurvivesTheStop) {
  // The fixed-threshold vote draws its coin only at exactly c pairs and is
  // decided above c. Players whose full count sits at c - 1, c and c + 1
  // must get the reference runner's message: the stop at c + 1 pairs may
  // not swallow a coin, and a tie still sees the whole post-sampling
  // stream.
  const DistributedTesterConfig cfg{256, 8, 32, 0.5};
  const FixedThresholdTester tester(cfg, 3);
  const std::uint64_t c = tester.local_count_threshold();
  const double gamma = tester.local_boundary_gamma();
  ASSERT_GT(gamma, 0.0);
  ASSERT_LT(gamma, 1.0);
  const UniformSource uniform(cfg.n);
  std::size_t below = 0;
  std::size_t ties = 0;
  std::size_t tie_rejects = 0;
  std::size_t above = 0;
  for (std::uint64_t t = 0; t < 200; ++t) {
    Rng ref_rng(derive_seed(45, t));
    Rng plane_rng(derive_seed(45, t));
    const std::vector<Message>& messages =
        tester.executor().collect(uniform, plane_rng);
    std::vector<std::uint64_t> samples;
    for (unsigned j = 0; j < cfg.k; ++j) {
      Rng player = make_rng(ref_rng(), j);
      uniform.sample_many(player, cfg.q, samples);
      const std::uint64_t pairs = naive_pairs(samples);
      bool reject = pairs > c;
      if (pairs == c) {
        reject = player.next_bernoulli(gamma);
        ++ties;
        tie_rejects += reject ? 1 : 0;
      }
      below += pairs + 1 == c ? 1 : 0;
      above += pairs == c + 1 ? 1 : 0;
      EXPECT_EQ(messages[j].bits, reject ? 0U : 1U)
          << "trial " << t << " player " << j << " pairs " << pairs;
    }
  }
  EXPECT_GT(below, 20u);
  EXPECT_GT(above, 20u);
  // Both sides of the coin showed up.
  EXPECT_GT(tie_rejects, 0u);
  EXPECT_LT(tie_rejects, ties);
}

TEST(ProtocolBatch, ProbeTalliesIdenticalAcrossThreadPools) {
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_rng(12);
  auto tester = std::make_shared<DistributedThresholdTester>(cfg, calib_rng, 500);
  const TesterRun run = [tester](const SampleSource& s, Rng& r) {
    return tester->run(s, r);
  };
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const ProbeResult a =
      probe_success(run, workloads::uniform_factory(cfg.n),
                    workloads::paninski_far_factory(cfg.n, cfg.eps), 200, 9,
                    pool1);
  const ProbeResult b =
      probe_success(run, workloads::uniform_factory(cfg.n),
                    workloads::paninski_far_factory(cfg.n, cfg.eps), 200, 9,
                    pool8);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.trials, b.trials);
}

// The reference search's minimum at seed 1 and 60 trials per probe.
constexpr unsigned kGoldenQ = 312;

// The reference q* search as perfbench's qsearch builds it
// (bench::reference_point, seed 1) at 60 trials per full-budget probe finds
// the same minimum on pools of 1 and 8 threads, and 128 trials at it,
// alternating uniform and fresh eps-far sources, hash their messages and
// verdicts to the same fingerprint: both recorded from the per-player
// runner the batched plane replaced.
TEST(ProtocolBatch, ReferenceSearchKeepsItsGoldenMinimumAndFingerprint) {
  constexpr std::uint64_t kSeed = 1;
  SweepPoint reference = bench::reference_point(kSeed);
  reference.search.trials = 60;
  for (const unsigned threads : {1U, 8U}) {
    ThreadPool pool(threads);
    const MinSearchResult min = find_min_param(
        bench::full_budget_probe(reference, pool), reference.search, pool);
    EXPECT_TRUE(min.found) << threads << " threads";
    EXPECT_EQ(min.minimum, kGoldenQ) << threads << " threads";
  }

  const std::uint64_t n = bench::kReferenceN;
  Rng calib_rng = make_rng(kSeed, kGoldenQ, 0xCA11B);
  const DistributedThresholdTester tester(
      {n, bench::kReferenceK, kGoldenQ, bench::kReferenceEps}, calib_rng);
  const UniformSource uniform(n);
  const SourceSpec far_spec =
      workloads::paninski_far_factory(n, bench::kReferenceEps);
  Rng src_rng(derive_seed(kSeed, 0x5eed));
  Fnv64 fingerprint;
  for (std::uint64_t t = 0; t < 128; ++t) {
    std::unique_ptr<SampleSource> far;
    if (t % 2 == 1) far = far_spec(src_rng);
    const SampleSource* src = far ? far.get() : &uniform;
    Rng rng_msgs(derive_seed(kSeed, 0x1de, t));
    Rng rng_verdict(derive_seed(kSeed, 0x1de, t));
    // Hash the per-worker messages before run() reuses the buffer.
    for (const Message& m : tester.executor().collect(*src, rng_msgs)) {
      fingerprint.u64(m.bits).u64(m.width);
    }
    fingerprint.u64(tester.run(*src, rng_verdict) ? 1U : 0U);
  }
  EXPECT_EQ(fingerprint.value(), 0xf67f7e86265b4fe4ULL);
}

// Once its worker's buffers have grown, a trial allocates nothing: the
// threshold tester at the reference q* after an 8-trial warm-up, its first
// trial on each of 16 fresh eps-far sources (built outside the counted
// window, as a probe builds them), and each centralized tester.
TEST(ProtocolBatch, TrialsAllocateNothing) {
  const std::uint64_t n = bench::kReferenceN;
  const double eps = bench::kReferenceEps;
  const UniformSource uniform(n);
  const auto allocations_per_trial = [&uniform](const auto& tester) {
    constexpr std::uint64_t kTrials = 100;
    Rng rng(7);
    for (int t = 0; t < 8; ++t) (void)tester.run(uniform, rng);
    const std::uint64_t before = g_allocs.load();
    for (std::uint64_t t = 0; t < kTrials; ++t) (void)tester.run(uniform, rng);
    return static_cast<double>(g_allocs.load() - before) / kTrials;
  };
  Rng calib_rng = make_rng(1, kGoldenQ, 0xCA11B);
  const DistributedThresholdTester threshold(
      {n, bench::kReferenceK, kGoldenQ, eps}, calib_rng);
  EXPECT_EQ(allocations_per_trial(threshold), 0.0) << "threshold";
  // E8's collision minimum at this (n, eps), for all three.
  constexpr unsigned kQ = 1405;
  EXPECT_EQ(allocations_per_trial(CentralizedCollisionTester(n, eps, kQ)), 0.0)
      << "collision";
  EXPECT_EQ(allocations_per_trial(PaninskiCoincidenceTester(n, eps, kQ)), 0.0)
      << "coincidence";
  EXPECT_EQ(allocations_per_trial(ChiSquaredTester(n, eps, kQ)), 0.0)
      << "chi-squared";

  std::vector<std::unique_ptr<SampleSource>> fresh_far;
  Rng src_rng(derive_seed(1, 0xFA5));
  const SourceSpec far_spec = workloads::paninski_far_factory(n, eps);
  for (int i = 0; i < 16; ++i) fresh_far.push_back(far_spec(src_rng));
  const std::uint64_t before = g_allocs.load();
  for (std::size_t i = 0; i < fresh_far.size(); ++i) {
    Rng rng(derive_seed(1, 0xFA6, i));
    (void)threshold.run(*fresh_far[i], rng);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u) << "first trials on far sources";
}

TEST(AsymmetricRateTester, RejectsSampleCountsBeyondTheUnsignedRange) {
  // ceil(tau * rate) must fit the per-player unsigned sample count; 1e10
  // and 1e20 do not, and player 1 is the one named.
  for (const double rate : {1e10, 1e20}) {
    Rng calib(5);
    try {
      const AsymmetricRateTester t(256, {1.0, rate}, 1.0, calib, 10);
      ADD_FAILURE() << "rate " << rate << " constructed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("player 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CalibMemo, ReplayIsIndistinguishableFromFresh) {
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_a(77);
  Rng calib_b(77);
  const DistributedThresholdTester fresh(cfg, calib_a, 500);
  const DistributedThresholdTester memoized(cfg, calib_b, 500);
  EXPECT_EQ(fresh.referee_threshold(), memoized.referee_threshold());
  EXPECT_EQ(fresh.p_reject_uniform(), memoized.p_reject_uniform());
  // The memo hit must leave the calibration stream exactly where the fresh
  // computation left it.
  EXPECT_EQ(calib_a.state(), calib_b.state());
  const CalibMemo::Stats stats = CalibMemo::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  const UniformSource uniform(cfg.n);
  for (int t = 0; t < 10; ++t) {
    Rng ra(derive_seed(78, t));
    Rng rb(derive_seed(78, t));
    EXPECT_EQ(fresh.run(uniform, ra), memoized.run(uniform, rb));
  }
}

TEST(CalibMemo, AutoTrialCountResolvesIntoTheKey) {
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  // calib_trials = 0 resolves to max(4000, 30k); the memo key records the
  // RESOLVED count, so auto and the equivalent explicit count share an
  // entry while a different explicit count does not.
  Rng calib_auto(88);
  const DistributedThresholdTester auto_t(cfg, calib_auto);
  EXPECT_EQ(CalibMemo::global().stats().misses, 1u);
  Rng calib_explicit(88);
  const DistributedThresholdTester explicit_t(cfg, calib_explicit, 4000);
  EXPECT_EQ(CalibMemo::global().stats().hits, 1u);
  EXPECT_EQ(auto_t.referee_threshold(), explicit_t.referee_threshold());
  Rng calib_other(88);
  const DistributedThresholdTester other_t(cfg, calib_other, 1234);
  EXPECT_EQ(CalibMemo::global().stats().misses, 2u);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CalibMemo, PinnedCalibrationsReplayBitForBit) {
  // Every calibrated tester's values (as bit patterns) and the calibration
  // stream's exit state, pinned from the per-tester calibration loops that
  // calibrate_on_uniform replaced. Each row must reproduce its pins fresh,
  // as a memo hit, and fresh again after clear(). The multibit row's
  // uniform mean is exactly 0.0; the asymmetric row calibrates three
  // players from one stream.
  struct Row {
    const char* name;
    std::uint64_t seed;
    std::function<std::vector<std::uint64_t>(Rng&)> build;
    std::vector<std::uint64_t> values;
    Rng::State exit;
  };
  const std::vector<Row> rows = {
      {"threshold, 500 trials", 77,
       [](Rng& calib) {
         const DistributedThresholdTester t({512, 8, 24, 0.5}, calib, 500);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.referee_threshold()};
       },
       {0x3fdac083126e978dULL, 5},
       {0x7412859c194a01f9ULL, 0x664615c1a2750840ULL, 0x0dcb54dfe6ca4d67ULL,
        0xc660a83b8a5d3c8eULL}},
      {"threshold, auto trials", 77,
       [](Rng& calib) {
         const DistributedThresholdTester t({512, 8, 24, 0.5}, calib);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.referee_threshold()};
       },
       {0x3fda624dd2f1a9fcULL, 5},
       {0xb410af02db88f2f3ULL, 0x087e9648f6dc67f9ULL, 0xa810d82636884fa4ULL,
        0xeeff407bed1a11b5ULL}},
      {"robust naive", 78,
       [](Rng& calib) {
         const RobustThresholdTester t({512, 8, 24, 0.5}, FaultPlan{},
                                       RobustThresholdTester::Rule::kNaive,
                                       calib, 500);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.naive_referee_threshold()};
       },
       {0x3fda9fbe76c8b439ULL, 5},
       {0x39a7c9dc779f6cc8ULL, 0xe83395cd2c79b95aULL, 0xcf4d1ba9f4e57c42ULL,
        0xeceb0a87e97b1c9fULL}},
      {"tree on a 9-node star", 79,
       [](Rng& calib) {
         Network net(9);
         net.add_star(0);
         const TreeUniformityTester t(net, 0, {512, 24, 0.5}, calib, 500);
         return std::vector<std::uint64_t>{t.referee_threshold()};
       },
       {6},
       {0xb7a60e0521a60d21ULL, 0xc4e06e7aec75d879ULL, 0x72d3f75af1425c74ULL,
        0x47446321aa232186ULL}},
      {"multibit", 2,
       [](Rng& calib) {
         const MultibitSumTester t({4096, 32, 2, 0.5}, 8, calib);
         return std::vector<std::uint64_t>{bits_of(t.sum_threshold())};
       },
       {0x3eb0c6f7a0b5ed8dULL},
       {0x3e0340a37ef8221eULL, 0xe79df4678ecf738bULL, 0x85a07e56fa06f346ULL,
        0x79ad6f91d4581c5cULL}},
      {"asymmetric", 3,
       [](Rng& calib) {
         const AsymmetricRateTester t(256, {1, 2, 4}, 8.0, calib, 50);
         std::vector<std::uint64_t> out;
         for (const double p : t.p_reject_uniform()) out.push_back(bits_of(p));
         out.push_back(bits_of(t.referee_threshold()));
         return out;
       },
       {0x3fc1eb851eb851ecULL, 0x3fd1eb851eb851ecULL, 0x3fe147ae147ae148ULL,
        0x3ffb71a83483940dULL},
       {0x8076eea45c42dd9fULL, 0x6976098182c6e484ULL, 0x5b513064982293f9ULL,
        0x6f6e4638ade442d1ULL}},
  };
  const auto check_rows = [&rows](const char* pass) {
    for (const Row& row : rows) {
      Rng calib(row.seed);
      EXPECT_EQ(row.build(calib), row.values) << row.name << ", " << pass;
      EXPECT_EQ(calib.state(), row.exit) << row.name << ", " << pass;
    }
  };

  // Each construction makes exactly one memo lookup.
  const std::uint64_t lookups = rows.size();
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  check_rows("fresh");
  EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
  EXPECT_EQ(CalibMemo::global().stats().hits, 0u);

  CalibMemo::global().reset_stats();
  check_rows("memo hit");
  EXPECT_EQ(CalibMemo::global().stats().misses, 0u);
  EXPECT_EQ(CalibMemo::global().stats().hits, lookups);

  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  check_rows("after clear");
  EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
  EXPECT_EQ(CalibMemo::global().stats().hits, 0u);
}

TEST(CalibMemo, RobustAndTreeTestersShareTheThresholdCalibration) {
  // The three one-bit testers calibrate the same statistic, so equal
  // (n, q, resolved trials, entry state) is one memo entry. k is not part
  // of it: the tree's 9 voters and the threshold tester's 8 both resolve
  // to the 4000-trial auto count.
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  Rng calib_thr(77);
  const DistributedThresholdTester thr({512, 8, 24, 0.5}, calib_thr);
  Rng calib_robust(77);
  const RobustThresholdTester robust({512, 8, 24, 0.5}, FaultPlan{},
                                     RobustThresholdTester::Rule::kNaive,
                                     calib_robust);
  Network net(9);
  net.add_star(0);
  Rng calib_tree(77);
  const TreeUniformityTester tree(net, 0, {512, 24, 0.5}, calib_tree);
  EXPECT_EQ(CalibMemo::global().stats().misses, 1u);
  EXPECT_EQ(CalibMemo::global().stats().hits, 2u);
  EXPECT_EQ(robust.p_reject_uniform(), thr.p_reject_uniform());
  EXPECT_EQ(robust.naive_referee_threshold(), thr.referee_threshold());
  EXPECT_EQ(calib_robust.state(), calib_thr.state());
  EXPECT_EQ(calib_tree.state(), calib_thr.state());
}

// The serial calibration loop: per player in order, `trials` sets of q
// draws below n from the one stream, each pair-counted naively, then
// summarized.
std::vector<double> serial_calibration(std::uint64_t n,
                                       std::span<const unsigned> qs,
                                       std::size_t trials, Rng& rng,
                                       const CalibrationSummary& summarize) {
  std::vector<double> values;
  for (const unsigned q : qs) {
    std::vector<std::uint64_t> pairs(trials);
    std::vector<std::uint64_t> samples(q);
    for (std::uint64_t& p : pairs) {
      for (std::uint64_t& s : samples) s = rng.next_below(n);
      p = naive_pairs(samples);
    }
    const std::vector<double> player = summarize(q, pairs);
    values.insert(values.end(), player.begin(), player.end());
  }
  return values;
}

TEST(Calibration, EveryPoolReproducesTheSerialLoop) {
  // Fresh calibrations (memo cleared) on pools of 1, 2 and 8 threads match
  // the serial loop's values and exit state: the one-bit "rejects" rate,
  // a multibit-style encoded mean and variance, and three players drawing
  // from one stream.
  const CalibrationSummary rejects = [](unsigned q,
                                        std::span<const std::uint64_t> pairs) {
    const double local_t = expected_collision_pairs_uniform(1000.0, q);
    const auto over = std::count_if(pairs.begin(), pairs.end(),
                                    [&](std::uint64_t p) {
                                      return static_cast<double>(p) > local_t;
                                    });
    return std::vector<double>{static_cast<double>(over) /
                               static_cast<double>(pairs.size())};
  };
  const CalibrationSummary encoded = [](unsigned,
                                        std::span<const std::uint64_t> pairs) {
    std::vector<double> clipped;
    for (const std::uint64_t p : pairs) {
      clipped.push_back(static_cast<double>(std::min<std::uint64_t>(p, 7)));
    }
    return std::vector<double>{mean(clipped), sample_variance(clipped)};
  };
  struct Case {
    std::string statistic;
    std::vector<unsigned> qs;
    std::size_t trials;
    CalibrationSummary summarize;
  };
  const std::vector<Case> cases = {
      {"rejects", {40}, 4000, rejects},
      {"encoded|r=3", {60}, 1000, encoded},
      {"rejects", {12, 24, 48}, 700, rejects},
  };
  for (const Case& c : cases) {
    Rng serial(55);
    const std::vector<double> want =
        serial_calibration(1000, c.qs, c.trials, serial, c.summarize);
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      CalibMemo::global().clear();
      Rng rng(55);
      EXPECT_EQ(calibrate_on_uniform(c.statistic, 1000, c.qs, c.trials, rng,
                                     c.summarize, pool),
                want)
          << c.statistic << ", " << c.qs.size() << " players, threads "
          << threads;
      EXPECT_EQ(rng.state(), serial.state())
          << c.statistic << ", " << c.qs.size() << " players, threads "
          << threads;
    }
  }
  // uniform_reject_rates is the "rejects" summary over the same loop.
  ThreadPool pool(8);
  CalibMemo::global().clear();
  Rng rng(55);
  Rng serial(55);
  const std::vector<unsigned> qs = {12, 24, 48};
  EXPECT_EQ(uniform_reject_rates(1000, qs, 700, rng, pool),
            serial_calibration(1000, qs, 700, serial, rejects));
  EXPECT_EQ(rng.state(), serial.state());
}

TEST(Calibration, ZeroTrialsThrowBeforeAnyDraw) {
  Rng rng(4);
  const Rng::State entry = rng.state();
  const std::vector<unsigned> qs = {4};
  try {
    (void)uniform_reject_rates(64, qs, 0, rng);
    ADD_FAILURE() << "zero trials did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("calibrate_on_uniform"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rng.state(), entry);
}

TEST(ProtocolBatch, ChaosLaneCarriesBatchedVotes) {
  // Compose the batched plane with the fault-tolerant network layer: the
  // executor's votes ride a reliable convergecast over a lossy star, and
  // the root's tally must reproduce the referee verdict exactly.
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_rng(13);
  const DistributedThresholdTester tester(cfg, calib_rng, 500);

  Rng vote_rng(4242);
  Rng run_rng(4242);
  const std::vector<Message> msgs =
      tester.executor().collect(UniformSource(cfg.n), vote_rng);

  Network net(cfg.k + 1);
  net.add_star(0);
  LinkFault lossy;
  lossy.drop_prob = 0.1;  // within the retransmission budget's tolerance
  net.set_default_fault(lossy);
  const SpanningTree tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values(cfg.k + 1, 0);
  std::uint64_t rejects = 0;
  for (unsigned j = 0; j < cfg.k; ++j) {
    values[j + 1] = msgs[j].as_bit() ? 0 : 1;  // node j+1 carries player j
    rejects += values[j + 1];
  }
  Rng net_rng(31337);
  const ReliableConvergecastResult result =
      convergecast_sum_reliable(net, tree, values, 1, net_rng);
  EXPECT_EQ(result.values_reached, cfg.k + 1);
  EXPECT_EQ(result.root_sum, rejects);
  const bool network_accept = result.root_sum < tester.referee_threshold();
  EXPECT_EQ(network_accept, tester.run(UniformSource(cfg.n), run_rng));
}

}  // namespace
}  // namespace duti
