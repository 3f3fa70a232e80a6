#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
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

TEST(ThreadPool, ConfiguredThreadsReadsEnv) {
  ASSERT_EQ(setenv("DUTI_THREADS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::configured_threads(), 5u);
  ASSERT_EQ(setenv("DUTI_THREADS", "junk", 1), 0);
  EXPECT_GE(ThreadPool::configured_threads(), 1u);  // falls back to hardware
  ASSERT_EQ(setenv("DUTI_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
  ASSERT_EQ(unsetenv("DUTI_THREADS"), 0);
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
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

}  // namespace
}  // namespace duti
