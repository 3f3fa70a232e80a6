// Persistent probe cache (DESIGN.md section 8): round-trip bit-identity,
// fingerprint sensitivity to every key field, the two flavor keys byte for
// byte, and tolerance to corrupt and unframed JSONL lines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/probe_cache.hpp"
#include "stats/workloads.hpp"
#include "testers/collision.hpp"

namespace duti {
namespace {

// Fresh scratch directory per test, removed on teardown.
class ProbeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("duti_cache_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

ProbeKey sample_key() {
  ProbeKey key;
  key.workload = "nuz:n=4096:eps=0.5";
  key.tester = "collision";
  key.param = 384;
  key.trials = 400;
  key.seed = 7;
  key.flavor = "full";
  return key;
}

ProbeResult sample_result() {
  ProbeResult r = probe_result_from_tallies(301, 295, 400, 400,
                                            ProbeStop::kExhausted);
  r.uniform_aborts_quorum = 3;
  r.far_aborts_quorum = 1;
  return r;
}

void expect_bit_identical(const ProbeResult& a, const ProbeResult& b) {
  // Doubles compared with == on purpose: the cache must reproduce the exact
  // bits, not an approximation.
  EXPECT_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_EQ(a.far_reject_rate, b.far_reject_rate);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.uniform_aborts_quorum, b.uniform_aborts_quorum);
  EXPECT_EQ(a.far_aborts_quorum, b.far_aborts_quorum);
}

TEST_F(ProbeCacheTest, RoundTripsAcrossProcesses) {
  const ProbeKey key = sample_key();
  const ProbeResult original = sample_result();
  {
    ProbeCache cache(dir_, CacheMode::kReadWrite);
    cache.insert(key, original);
    EXPECT_EQ(cache.stats().inserts, 1u);
  }
  // A fresh instance over the same directory simulates the next process run.
  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  EXPECT_EQ(reloaded.size(), 1u);
  const auto hit = reloaded.lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(*hit, original);
  EXPECT_EQ(reloaded.stats().hits, 1u);
}

TEST_F(ProbeCacheTest, FingerprintIsSensitiveToEveryKeyField) {
  const ProbeKey base = sample_key();
  const std::uint64_t fp = base.fingerprint();

  ProbeKey k = base;
  k.workload = "nuz:n=4096:eps=0.25";
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.tester = "chi2";
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.param += 1;
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.trials += 1;
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.seed += 1;
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.flavor =
      probe_key(k, k.param, k.trials, k.seed, ProbeFlavor::kAdaptive).flavor;
  EXPECT_NE(k.fingerprint(), fp);
  k = base;
  k.engine_version += 1;
  EXPECT_NE(k.fingerprint(), fp);
  // Field contents must not alias across field boundaries.
  k = base;
  k.workload = base.workload + base.tester;
  k.tester = "";
  EXPECT_NE(k.fingerprint(), fp);
}

TEST_F(ProbeCacheTest, FlavorKeysAreByteExact) {
  // Journals written while the adaptive schedule was a config struct
  // filed its default schedule under exactly this string; keeping it byte
  // for byte keeps those journals hitting.
  const ProbeKey base = sample_key();
  const ProbeKey full = probe_key(base, 384, 400, 7);
  const ProbeKey adaptive =
      probe_key(base, 384, 400, 7, ProbeFlavor::kAdaptive);
  EXPECT_EQ(full.flavor, "full");
  EXPECT_EQ(adaptive.flavor,
            "adaptive:b=32:target=0.6666666666666666:delta=0.001:min=0");
  EXPECT_EQ(full, base);
  EXPECT_EQ(adaptive.param, 384u);
  EXPECT_EQ(adaptive.trials, 400u);
  EXPECT_EQ(adaptive.seed, 7u);
  EXPECT_EQ(adaptive.engine_version, kProbeEngineVersion);
}

TEST_F(ProbeCacheTest, MissOnDifferentKeyAndHitAfterInsert) {
  ProbeCache cache(dir_, CacheMode::kReadWrite);
  const ProbeKey key = sample_key();
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, sample_result());
  ProbeKey other = key;
  other.seed += 1;
  EXPECT_FALSE(cache.lookup(other).has_value());
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ProbeCacheTest, OffModeDoesNoIOAndComputesEveryTime) {
  ProbeCache cache(dir_, CacheMode::kOff);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return sample_result();
  };
  (void)cache.get_or_compute(sample_key(), compute);
  (void)cache.get_or_compute(sample_key(), compute);
  EXPECT_EQ(computes, 2);
  EXPECT_FALSE(std::filesystem::exists(dir_));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_F(ProbeCacheTest, GetOrComputeCachesAcrossCalls) {
  ProbeCache cache(dir_, CacheMode::kReadWrite);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return sample_result();
  };
  const ProbeResult first = cache.get_or_compute(sample_key(), compute);
  const ProbeResult second = cache.get_or_compute(sample_key(), compute);
  EXPECT_EQ(computes, 1);
  expect_bit_identical(first, second);
}

TEST_F(ProbeCacheTest, ToleratesCorruptLines) {
  {
    ProbeCache writer(dir_, CacheMode::kReadWrite);
    writer.insert(sample_key(), sample_result());
  }
  const std::string path =
      (std::filesystem::path(dir_) / "probes.jsonl").string();
  {
    std::ofstream out(path, std::ios::app);
    out << "not json at all\n";
    out << "{\"workload\":\"truncated\n";
    out << "{\"workload\":\"x\",\"tester\":\"y\",\"flavor\":\"z\"}\n";
  }
  // Append a second valid record AFTER the garbage, then a torn final line
  // (killed process mid-append).
  ProbeKey second = sample_key();
  second.param += 1;
  {
    ProbeCache writer(dir_, CacheMode::kReadWrite);
    writer.insert(second, sample_result());
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"workload\":\"torn\",\"tester\":\"t\",\"par";
  }
  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.lookup(sample_key()).has_value());
  EXPECT_TRUE(reloaded.lookup(second).has_value());
}

TEST_F(ProbeCacheTest, UnframedLinesAreSkippedAndScrubbed) {
  // A whole JSON record without its J1 frame is not a record: it is
  // skipped like a torn line, scrubbed from the journal on load, and the
  // probe it described recomputes on demand.
  {
    ProbeCache writer(dir_, CacheMode::kReadWrite);
    writer.insert(sample_key(), sample_result());
  }
  const std::string path =
      (std::filesystem::path(dir_) / "probes.jsonl").string();
  std::string framed;
  {
    std::ifstream in(path);
    std::getline(in, framed);
  }
  const auto payload = probe_journal_decode(framed);
  ASSERT_TRUE(payload.has_value());
  ProbeKey unframed_key = sample_key();
  unframed_key.seed += 1;
  std::string unframed = *payload;
  const std::string seed_field = "\"seed\":7,";
  ASSERT_NE(unframed.find(seed_field), std::string::npos);
  unframed.replace(unframed.find(seed_field), seed_field.size(),
                   "\"seed\":8,");
  {
    std::ofstream out(path, std::ios::app);
    out << unframed << "\n";
  }
  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.lookup(sample_key()).has_value());
  EXPECT_FALSE(reloaded.lookup(unframed_key).has_value());
  std::ifstream in(path);
  std::stringstream journal;
  journal << in.rdbuf();
  EXPECT_EQ(journal.str(), framed + "\n");
}

TEST_F(ProbeCacheTest, KeyStringsSurviveEscaping) {
  ProbeKey key = sample_key();
  key.workload = "weird \"quoted\" \\ backslash\tand\ttabs";
  const ProbeResult original = sample_result();
  {
    ProbeCache writer(dir_, CacheMode::kReadWrite);
    writer.insert(key, original);
  }
  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  const auto hit = reloaded.lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(*hit, original);
}

TEST_F(ProbeCacheTest, CachedProbeEntryPointIsBitIdentical) {
  // The real integration: a cached probe's second run must be served from
  // disk and reproduce the computed ProbeResult exactly.
  const TesterRun tester = [](const SampleSource& source, Rng& rng) {
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 32, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 32);
    return static_cast<double>(
               collision_pairs(samples, source.domain_size())) <=
           expected + 1.0;
  };
  ProbeKey base;
  base.workload = "paninski:n=128:eps=0.5";
  base.tester = "noisy-collision";
  const auto cached_probe = [&](ProbeCache& cache, std::size_t trials) {
    return cache.get_or_compute(probe_key(base, 32, trials, 13), [&] {
      return probe_success(tester, workloads::uniform_factory(128),
                           workloads::paninski_far_factory(128, 0.5), trials,
                           13);
    });
  };

  ProbeResult computed;
  {
    ProbeCache cache(dir_, CacheMode::kReadWrite);
    computed = cached_probe(cache, 200);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);
  }
  ProbeCache cache(dir_, CacheMode::kReadWrite);
  const ProbeResult replayed = cached_probe(cache, 200);
  EXPECT_EQ(cache.stats().hits, 1u);
  expect_bit_identical(computed, replayed);

  // A different trial budget is a different probe: miss, then recompute.
  const ProbeResult other = cached_probe(cache, 100);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(other.trials, 100u);
}

}  // namespace
}  // namespace duti
