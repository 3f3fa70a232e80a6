// Crash-safety of the probe-cache journal (DESIGN.md section 8): a
// SIGKILL'd writer can tear at most the final line, the tear is detected
// by the J1 framing, survivors replay bit-identically, and unusable cache
// directories degrade the cache to kOff instead of throwing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "stats/probe_cache.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DUTI_HAVE_FORK 1
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#endif

namespace duti {
namespace {

class CacheCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("duti_crash_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Deterministic (key, result) stream: the i-th record is a pure function
// of i, so a parent process can recompute what a killed child wrote.
ProbeKey key_for(std::uint64_t i) {
  ProbeKey key;
  key.workload = "crash:wl";
  key.tester = "crash";
  key.param = i;
  key.trials = 100;
  key.seed = i * 31 + 1;
  key.flavor = "full";
  return key;
}

ProbeResult result_for(std::uint64_t i) {
  ProbeResult r = probe_result_from_tallies(i % 101, (i * 7) % 101, 100, 100,
                                            ProbeStop::kExhausted);
  r.uniform_aborts_quorum = i % 3;
  r.far_aborts_quorum = i % 5;
  return r;
}

void expect_bit_identical(const ProbeResult& a, const ProbeResult& b) {
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.stop, b.stop);
  // Doubles compared with == on purpose: a replayed hit must reproduce the
  // exact bits of the fresh computation, not an approximation.
  EXPECT_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_EQ(a.far_reject_rate, b.far_reject_rate);
  EXPECT_EQ(a.uniform_aborts_quorum, b.uniform_aborts_quorum);
  EXPECT_EQ(a.far_aborts_quorum, b.far_aborts_quorum);
}

std::vector<std::string> journal_lines(const std::string& dir) {
  std::ifstream in(std::filesystem::path(dir) / "probes.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST_F(CacheCrashTest, FramingRoundTripsAndDetectsTears) {
  const std::string json = "{\"workload\":\"x\",\"param\":7}";
  const std::string framed = probe_journal_frame(json);
  ASSERT_TRUE(probe_journal_decode(framed).has_value());
  EXPECT_EQ(*probe_journal_decode(framed), json);

  // Every proper prefix is a torn write: detected, never half-parsed.
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    EXPECT_FALSE(probe_journal_decode(framed.substr(0, cut)).has_value())
        << "prefix of length " << cut << " decoded";
  }
  // A single flipped payload byte fails the checksum.
  std::string flipped = framed;
  flipped.back() ^= 1;
  EXPECT_FALSE(probe_journal_decode(flipped).has_value());
  // Unframed lines are not J1 records.
  EXPECT_FALSE(probe_journal_decode(json).has_value());
  EXPECT_FALSE(probe_journal_decode("").has_value());
}

#ifdef DUTI_HAVE_FORK
TEST_F(CacheCrashTest, SigkillMidWriteNeverCorruptsSurvivingRecords) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append deterministic records until killed. _exit (not exit)
    // on the off-chance the loop completes, to skip gtest teardown.
    ProbeCache cache(dir_, CacheMode::kReadWrite);
    for (std::uint64_t i = 0; i < 200000; ++i) {
      cache.insert(key_for(i), result_for(i));
    }
    _exit(0);
  }

  // Parent: wait for the journal to grow past a few KiB of records, then
  // SIGKILL the writer wherever it happens to be.
  const auto journal = std::filesystem::path(dir_) / "probes.jsonl";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    if (std::filesystem::file_size(journal, ec) > 8192 && !ec) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  // Audit the raw journal BEFORE any compaction: every line except
  // possibly the torn last one must verify its framing.
  const std::vector<std::string> lines = journal_lines(dir_);
  ASSERT_GE(lines.size(), 2u) << "journal did not grow before the kill";
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_TRUE(probe_journal_decode(lines[i]).has_value())
        << "non-final line " << i << " is corrupt";
  }
  const bool last_torn = !probe_journal_decode(lines.back()).has_value();

  // Reload (kReadWrite scrubs any torn tail) and replay: records survive
  // as an exact prefix of the insert order, each hit bit-identical.
  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  ASSERT_EQ(reloaded.mode(), CacheMode::kReadWrite);
  const std::size_t survivors = reloaded.size();
  EXPECT_GE(survivors, lines.size() - (last_torn ? 1 : 0));
  for (std::uint64_t i = 0; i < survivors; ++i) {
    const auto hit = reloaded.lookup(key_for(i));
    ASSERT_TRUE(hit.has_value()) << "hole at record " << i << " of "
                                 << survivors << " survivors";
    expect_bit_identical(*hit, result_for(i));
  }
  EXPECT_FALSE(reloaded.lookup(key_for(survivors)).has_value());

  // After the scrub, the journal is pristine: every line decodes.
  for (const std::string& line : journal_lines(dir_)) {
    EXPECT_TRUE(probe_journal_decode(line).has_value());
  }
}
#endif  // DUTI_HAVE_FORK

TEST_F(CacheCrashTest, TornFinalLineIsDetectedAndScrubbed) {
  {
    ProbeCache cache(dir_, CacheMode::kReadWrite);
    cache.insert(key_for(0), result_for(0));
    cache.insert(key_for(1), result_for(1));
  }
  {
    // Simulate a crash mid-append: a framed line cut off halfway through
    // its payload.
    std::ofstream out(std::filesystem::path(dir_) / "probes.jsonl",
                      std::ios::app);
    const std::string framed = probe_journal_frame("{\"workload\":\"t\"}");
    out << framed.substr(0, framed.size() / 2);
  }

  ProbeCache reloaded(dir_, CacheMode::kReadWrite);
  EXPECT_EQ(reloaded.size(), 2u);
  const auto hit = reloaded.lookup(key_for(1));
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(*hit, result_for(1));
  // Loading at kReadWrite scrubbed the tear: the journal is whole again.
  for (const std::string& line : journal_lines(dir_)) {
    EXPECT_TRUE(probe_journal_decode(line).has_value());
  }
}

TEST_F(CacheCrashTest, UnwritableDirectoryDegradesToOff) {
  // A cache dir that cannot exist: its parent path is a regular file.
  // (Permission bits are no obstacle to a root test runner; a file in the
  // way stops everyone.)
  std::ofstream(dir_).put('x');
  const std::string bad = (std::filesystem::path(dir_) / "sub").string();

  ProbeCache cache(bad, CacheMode::kReadWrite);  // warns once, no throw
  EXPECT_EQ(cache.mode(), CacheMode::kOff);
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_for(0), result_for(0));  // silent no-op
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_for(0)).has_value());
  // get_or_compute still computes: degradation never blocks the caller.
  const ProbeResult r =
      cache.get_or_compute(key_for(3), [] { return result_for(3); });
  expect_bit_identical(r, result_for(3));
}

TEST_F(CacheCrashTest, VanishingDirectoryDegradesToOff) {
  ProbeCache cache(dir_, CacheMode::kReadWrite);
  cache.insert(key_for(0), result_for(0));
  ASSERT_EQ(cache.mode(), CacheMode::kReadWrite);

  std::filesystem::remove_all(dir_);  // rug-pull mid-run

  cache.insert(key_for(1), result_for(1));  // warns once, no throw
  EXPECT_EQ(cache.mode(), CacheMode::kOff);
  // Already-loaded state answers nothing once degraded; compute paths work.
  const ProbeResult r =
      cache.get_or_compute(key_for(2), [] { return result_for(2); });
  expect_bit_identical(r, result_for(2));
}

}  // namespace
}  // namespace duti
