// A small fixed-size thread pool with a chunked parallel_for, the
// concurrency substrate of the measurement stack (see DESIGN.md §7).
//
// Design constraints, in order:
//   1. Determinism. parallel_for partitions [0, n) into chunks with a layout
//      that depends only on (n, grain) — never on thread count or timing —
//      so callers can accumulate per-chunk partial results and reduce them
//      in chunk order, producing bit-identical output at any thread count.
//      Which WORKER runs a chunk is scheduled dynamically (load balance);
//      which TRIALS a chunk holds is not.
//   2. Graceful serial degradation. A 1-thread pool and a single-chunk loop
//      run inline on the calling thread. A parallel_for issued from inside a
//      pool task shares its chunks with idle workers while the caller keeps
//      claiming chunks itself (nested point→trial scheduling): the loop
//      always progresses on the calling thread, so nesting cannot deadlock,
//      and idle workers drain the inner loop instead of spinning.
//   3. No silent swallowing: the first exception thrown by a chunk body is
//      captured and rethrown on the calling thread after the loop drains.
//
// The global pool is sized by the DUTI_THREADS environment variable
// (default: std::thread::hardware_concurrency()).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace duti {

class ThreadPool {
 public:
  /// Chunk body: half-open index range [begin, end) plus the id of the
  /// worker slot executing it (0 <= worker < size()). Per-worker scratch
  /// buffers may be indexed by `worker`; per-chunk RESULTS must be keyed by
  /// the chunk range (e.g. begin / grain), never by worker.
  using ChunkBody =
      std::function<void(std::size_t begin, std::size_t end, unsigned worker)>;

  /// A pool with `threads` workers (clamped to >= 1). A 1-thread pool spawns
  /// no OS threads at all: every parallel_for runs inline.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// Apply `body` to [0, n) in chunks of `grain` (last chunk may be short):
  /// chunk c covers [c*grain, min(n, (c+1)*grain)). Blocks until every chunk
  /// ran; rethrows the first chunk exception. Runs inline when the pool has
  /// one thread or there is at most one chunk. Called from inside a pool
  /// task (nested), the caller claims chunks itself while idle workers help
  /// drain the rest — same chunk layout, so reductions stay bit-identical.
  void parallel_for(std::size_t n, std::size_t grain, const ChunkBody& body);

  /// Process-wide pool, sized by configured_threads() on first use.
  static ThreadPool& global();

  /// DUTI_THREADS as a decimal integer in [1, 1024]; hardware_concurrency()
  /// (at least 1) when unset or empty. Throws InvalidArgument, naming the
  /// value, for anything else.
  [[nodiscard]] static unsigned configured_threads();

 private:
  void worker_loop();

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace duti
