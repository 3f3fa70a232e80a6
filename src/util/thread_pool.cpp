#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/error.hpp"

namespace duti {

namespace {
// Set on pool worker threads; a parallel_for issued from one shares its
// chunks with idle workers instead of blocking on the pool's queue.
thread_local bool tls_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  if (threads_ == 1) return;  // inline-only pool, no OS threads
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const ChunkBody& body) {
  require(static_cast<bool>(body), "parallel_for: null body");
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;

  auto run_chunk = [&](std::size_t c, unsigned worker) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    body(begin, end, worker);
  };

  // Serial paths: 1-thread pool or a single chunk. Chunk layout (and
  // therefore any per-chunk reduction) is identical to the parallel path.
  if (threads_ == 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c, 0);
    return;
  }

  // Nested call from a pool worker (this pool's or another's): share the
  // chunks with idle workers instead of serializing. The caller claims and
  // runs chunks itself, so the loop always makes progress even if every
  // helper task is stuck behind long-running work in the queue — a worker
  // never blocks waiting on an unstarted task, which is what made the old
  // "workers block on nested loops" design a deadlock. Helper tasks that
  // get popped after the last chunk was claimed see an exhausted cursor
  // and return without touching the (by then possibly dead) loop body, so
  // the shared state owns copies of everything a late helper may read.
  if (tls_in_worker) {
    struct ShareState {
      std::atomic<std::size_t> next{0};
      std::size_t chunks = 0;
      std::size_t n = 0;
      std::size_t grain = 0;
      const ChunkBody* body = nullptr;  // valid while done < chunks
      std::atomic<bool> failed{false};
      std::exception_ptr error;  // guarded by mutex
      std::size_t done = 0;      // guarded by mutex; one tick per chunk
      std::mutex mutex;
      std::condition_variable all_done;
    };
    auto state = std::make_shared<ShareState>();
    state->chunks = chunks;
    state->n = n;
    state->grain = grain;
    state->body = &body;

    auto drain = [](const std::shared_ptr<ShareState>& s, unsigned worker) {
      for (;;) {
        const std::size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= s->chunks) return;
        if (!s->failed.load(std::memory_order_relaxed)) {
          try {
            const std::size_t begin = c * s->grain;
            const std::size_t end = std::min(s->n, begin + s->grain);
            (*s->body)(begin, end, worker);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(s->mutex);
            if (!s->error) s->error = std::current_exception();
            s->failed.store(true, std::memory_order_relaxed);
          }
        }
        {
          // Every claimed chunk ticks `done` exactly once (even when
          // skipped after a failure), so done == chunks is the precise
          // "no chunk is running or will run" completion condition.
          const std::lock_guard<std::mutex> lock(s->mutex);
          if (++s->done == s->chunks) s->all_done.notify_all();
        }
      }
    };

    const unsigned helpers = static_cast<unsigned>(
        std::min<std::size_t>(threads_ - 1, chunks - 1));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (unsigned h = 1; h <= helpers; ++h) {
        tasks_.emplace([state, drain, h] { drain(state, h); });
      }
    }
    wake_.notify_all();

    drain(state, 0);  // the caller is runner slot 0 and claims until empty
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->all_done.wait(lock,
                           [&] { return state->done == state->chunks; });
    }
    if (state->error) std::rethrow_exception(state->error);
    return;
  }

  // Shared state for this loop: a dynamic chunk cursor (load balance; chunk
  // CONTENT stays deterministic) and completion/error plumbing.
  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::size_t pending;
    std::mutex done_mutex;
    std::condition_variable done;
  } state;

  const unsigned runners =
      static_cast<unsigned>(std::min<std::size_t>(threads_, chunks));
  state.pending = runners;

  auto runner = [&, chunks](unsigned worker) {
    for (;;) {
      const std::size_t c = state.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks || state.failed.load(std::memory_order_relaxed)) break;
      try {
        run_chunk(c, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
    {
      // Notify while holding the lock: the waiter destroys `state` as soon
      // as it observes pending == 0, which it can only do after we release
      // the mutex — so the cv is never signalled after destruction.
      const std::lock_guard<std::mutex> lock(state.done_mutex);
      --state.pending;
      state.done.notify_one();
    }
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned w = 0; w < runners; ++w) {
      tasks_.emplace([&runner, w] { runner(w); });
    }
  }
  wake_.notify_all();

  {
    std::unique_lock<std::mutex> lock(state.done_mutex);
    state.done.wait(lock, [&state] { return state.pending == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

unsigned ThreadPool::configured_threads() {
  if (const char* env = std::getenv("DUTI_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace duti
