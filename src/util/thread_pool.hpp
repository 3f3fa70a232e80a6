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
// parallel_for_stream runs a loop whose items all draw from ONE stream
// (a calibration, a Monte-Carlo moment) on the pool, bit-identically to the
// serial loop: it cuts the stream at jump-computed chunk starts.
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

#include "util/rng.hpp"

namespace duti {

class ThreadPool {
 public:
  /// Chunk body: half-open index range [begin, end) plus the id of the
  /// worker slot executing it (0 <= worker < size()). Per-worker scratch
  /// buffers may be indexed by `worker`; per-chunk RESULTS must be keyed by
  /// the chunk range (e.g. begin / grain), never by worker, unless their
  /// merge gives the same value in any order (integer counts do).
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

/// Chunk body of parallel_for_stream: items [begin, end), drawing from
/// `rng`, which stands where the serial loop's stream stands at `begin`.
using StreamChunkBody =
    std::function<void(std::size_t begin, std::size_t end, Rng& rng)>;

/// The serial loop "for each item in [0, n), draw from `rng`" on `pool`,
/// for items that each take `draws_per_item` raw outputs. Items run in
/// parallel_for's chunks of `grain`; chunk c starts from `rng`'s entry
/// state jumped c * grain * draws_per_item outputs. A chunk whose draws
/// took more raws (a next_below rejection, never for a power-of-two bound)
/// ends off its successor's start; every later chunk then reruns, in
/// order, from the true end state. So every chunk sees exactly the serial
/// loop's draws, for any grain and pool, and `rng` ends where the serial
/// loop leaves it. `body` must write its results keyed by item or chunk
/// (a rerun overwrites them), never accumulate across chunks. If a body
/// throws, the exception propagates and `rng` keeps its entry state.
void parallel_for_stream(ThreadPool& pool, std::size_t n, std::size_t grain,
                         std::uint64_t draws_per_item, Rng& rng,
                         const StreamChunkBody& body);

}  // namespace duti
