#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(ThreadPool, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 1237;  // not a multiple of any grain below
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 10, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ChunkLayoutIsDeterministic) {
  // Chunk c must cover [c*grain, min(n, (c+1)*grain)) regardless of which
  // worker runs it — per-chunk reductions key on begin/grain.
  ThreadPool pool(4);
  const std::size_t n = 103, grain = 10;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::atomic<std::uint64_t>> spans(chunks);
  pool.parallel_for(n, grain, [&](std::size_t b, std::size_t e, unsigned) {
    spans[b / grain].store((b << 32) | e);
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t v = spans[c].load();
    EXPECT_EQ(v >> 32, c * grain);
    EXPECT_EQ(v & 0xFFFFFFFFu, std::min(n, (c + 1) * grain));
  }
}

TEST(ThreadPool, WorkerIdsStayBelowSize) {
  ThreadPool pool(3);
  std::atomic<unsigned> max_worker{0};
  pool.parallel_for(1000, 1, [&](std::size_t, std::size_t, unsigned w) {
    unsigned cur = max_worker.load();
    while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
    }
  });
  EXPECT_LT(max_worker.load(), pool.size());
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t b, std::size_t, unsigned) {
                          if (b == 42) throw InvalidArgument("boom");
                        }),
      InvalidArgument);
}

TEST(ThreadPool, NestedParallelForCompletesAllChunks) {
  ThreadPool pool(4);
  std::atomic<int> nested_complete{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t, unsigned) {
    // A nested loop must not deadlock; its chunks may be shared with idle
    // workers, but every chunk runs exactly once before the call returns.
    std::atomic<int> local{0};
    ThreadPool::global().parallel_for(
        4, 1, [&](std::size_t, std::size_t, unsigned) { local.fetch_add(1); });
    if (local.load() == 4) nested_complete.fetch_add(1);
  });
  EXPECT_EQ(nested_complete.load(), 8);
}

TEST(ThreadPool, NestedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Outer loop of 2 chunks, each running a nested loop over a disjoint
  // half; nested chunks are shared with idle workers yet must cover each
  // index exactly once.
  const std::size_t half = 5000;
  std::vector<std::atomic<int>> counts(2 * half);
  pool.parallel_for(2, 1, [&](std::size_t ob, std::size_t, unsigned) {
    const std::size_t base = ob * half;
    pool.parallel_for(half, 7, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) counts[base + i].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(2, 1,
                        [&](std::size_t ob, std::size_t, unsigned) {
                          pool.parallel_for(
                              50, 1, [&](std::size_t b, std::size_t, unsigned) {
                                if (ob == 1 && b == 17) {
                                  throw InvalidArgument("nested boom");
                                }
                              });
                        }),
      InvalidArgument);
}

TEST(ThreadPool, EmptyAndSingleChunkRunInline) {
  ThreadPool pool(4);
  int calls = 0;  // safe: inline paths run on this thread
  pool.parallel_for(0, 10, [&](std::size_t, std::size_t, unsigned) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(5, 10, [&](std::size_t b, std::size_t e, unsigned w) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

/// Restores the caller's DUTI_THREADS on scope exit: the determinism
/// workflow runs this binary with the variable set.
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* v = std::getenv("DUTI_THREADS")) saved_ = v;
  }
  ~ThreadsEnvGuard() {
    if (saved_) {
      setenv("DUTI_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("DUTI_THREADS");
    }
  }
  ThreadsEnvGuard(const ThreadsEnvGuard&) = delete;
  ThreadsEnvGuard& operator=(const ThreadsEnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// These rows call configured_threads() only and never build a pool: a
// parser that wrapped a rejected value would otherwise start that many
// threads.
TEST(ThreadPool, ConfiguredThreadsReadsEnv) {
  const ThreadsEnvGuard guard;
  for (const char* value : {"1", "5", "8", "1024"}) {
    ASSERT_EQ(setenv("DUTI_THREADS", value, 1), 0);
    EXPECT_EQ(ThreadPool::configured_threads(),
              static_cast<unsigned>(std::stoul(value)));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned fallback = hw == 0 ? 1 : hw;
  ASSERT_EQ(setenv("DUTI_THREADS", "", 1), 0);
  EXPECT_EQ(ThreadPool::configured_threads(), fallback);
  ASSERT_EQ(unsetenv("DUTI_THREADS"), 0);
  EXPECT_EQ(ThreadPool::configured_threads(), fallback);
}

TEST(ThreadPool, ConfiguredThreadsRejectsAnythingElseLoudly) {
  const ThreadsEnvGuard guard;
  for (const char* value : {"0", "-3", "abc", "8x", "junk", "1025",
                            "4294967297", "5000000000"}) {
    SCOPED_TRACE(value);
    ASSERT_EQ(setenv("DUTI_THREADS", value, 1), 0);
    try {
      const unsigned threads = ThreadPool::configured_threads();
      ADD_FAILURE() << "accepted as " << threads;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DUTI_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + value + "\""),
                std::string::npos)
          << what;
    }
  }
}

TEST(ThreadPool, NullBodyThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, 1, nullptr), InvalidArgument);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  // A per-chunk reduction folded in chunk order: the pattern the harness
  // relies on for bit-identical parallel results.
  const std::size_t n = 10000, grain = 64;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::uint64_t serial = 0;
  for (std::size_t i = 0; i < n; ++i) serial += i * i;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> partial(chunks, 0);
    pool.parallel_for(n, grain, [&](std::size_t b, std::size_t e, unsigned) {
      std::uint64_t acc = 0;
      for (std::size_t i = b; i < e; ++i) acc += i * i;
      partial[b / grain] = acc;
    });
    const std::uint64_t total =
        std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
    EXPECT_EQ(total, serial) << "threads " << threads;
  }
}

// Each of `items` items draws `draws` values below `bound` from one
// stream, item by item: the serial loop parallel_for_stream replaces.
std::vector<std::uint64_t> serial_stream_draws(std::size_t items,
                                               unsigned draws,
                                               std::uint64_t bound, Rng& rng) {
  std::vector<std::uint64_t> out(items * draws);
  for (auto& v : out) v = rng.next_below(bound);
  return out;
}

TEST(ParallelForStream, MatchesTheSerialLoopOnEveryPoolAndGrain) {
  // 2^20 takes one raw output per draw; 2^63 + 1 rejects about half of
  // them, so nearly every chunk starts off its jumped position and reruns.
  constexpr std::size_t kItems = 1000;
  constexpr unsigned kDraws = 5;
  for (const std::uint64_t bound : {1ULL << 20, (1ULL << 63) + 1}) {
    Rng serial(7);
    const std::vector<std::uint64_t> want =
        serial_stream_draws(kItems, kDraws, bound, serial);
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (const std::size_t grain : {1UL, 7UL, 64UL, 1000UL, 5000UL}) {
        Rng rng(7);
        std::vector<std::uint64_t> got(kItems * kDraws);
        parallel_for_stream(
            pool, kItems, grain, kDraws, rng,
            [&](std::size_t begin, std::size_t end, Rng& stream) {
              for (std::size_t i = begin * kDraws; i < end * kDraws; ++i) {
                got[i] = stream.next_below(bound);
              }
            });
        EXPECT_EQ(got, want) << "bound " << bound << ", threads " << threads
                             << ", grain " << grain;
        EXPECT_EQ(rng.state(), serial.state())
            << "bound " << bound << ", threads " << threads << ", grain "
            << grain;
      }
    }
  }
}

TEST(ParallelForStream, NestedInsideAPoolTaskMatchesTheSerialLoop) {
  // Issued from pool workers: the share-and-help path.
  constexpr std::size_t kLoops = 6, kItems = 300;
  ThreadPool pool(4);
  std::vector<std::vector<std::uint64_t>> got(kLoops);
  std::vector<Rng::State> exits(kLoops);
  pool.parallel_for(kLoops, 1, [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t l = b; l < e; ++l) {
      Rng rng(100 + l);
      got[l].resize(kItems * 3);
      parallel_for_stream(pool, kItems, 16, 3, rng,
                          [&](std::size_t begin, std::size_t end,
                              Rng& stream) {
                            for (std::size_t i = begin * 3; i < end * 3; ++i) {
                              got[l][i] = stream.next_below(1000);
                            }
                          });
      exits[l] = rng.state();
    }
  });
  for (std::size_t l = 0; l < kLoops; ++l) {
    Rng serial(100 + l);
    EXPECT_EQ(got[l], serial_stream_draws(kItems, 3, 1000, serial)) << l;
    EXPECT_EQ(exits[l], serial.state()) << l;
  }
}

TEST(ParallelForStream, AThrowingBodyLeavesTheStreamAtItsEntryState) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Rng rng(9);
    const Rng::State entry = rng.state();
    EXPECT_THROW(parallel_for_stream(pool, 100, 10, 2, rng,
                                     [](std::size_t begin, std::size_t,
                                        Rng& stream) {
                                       (void)stream();
                                       if (begin == 50) {
                                         throw InvalidArgument("chunk 5");
                                       }
                                     }),
                 InvalidArgument);
    EXPECT_EQ(rng.state(), entry) << "threads " << threads;
  }
  ThreadPool pool(2);
  Rng rng(9);
  const Rng::State entry = rng.state();
  parallel_for_stream(pool, 0, 10, 2, rng,
                      [](std::size_t, std::size_t, Rng&) { FAIL(); });
  EXPECT_EQ(rng.state(), entry);
  EXPECT_THROW(parallel_for_stream(pool, 10, 1, 1, rng, nullptr),
               InvalidArgument);
}

}  // namespace
}  // namespace duti
