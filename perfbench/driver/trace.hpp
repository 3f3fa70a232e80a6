// Span recorder for the traced benchmark run. Every span is timed from the
// benchmark's own files, around the callbacks it hands to the library, so
// nothing under src/ changes when tracing is on.
//
// Spans record name, start, end, parent span and thread. They stay in
// per-thread buffers (no locking on the hot path) and are only gathered by
// collect() once the traced work has joined.
//
// Leaf folding: the sample-source decorator runs once per player per trial
// (tens of millions of calls per run), far too many to keep as individual
// spans. A leaf is instead folded into the innermost open span of its own
// thread: its duration is added to that span's `folded_ns` and to a
// per-name (calls, items, ns) total. Same-thread leaves never overlap each
// other or a recorded child that was open at the time (the leaf would have
// folded into that child), so subtracting `folded_ns` keeps self time exact.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t name = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t folded_ns = 0;  // same-thread leaves folded into this span
};

struct LeafTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
};

struct TraceResult {
  std::vector<Span> spans;
  std::vector<LeafTotals> leaves;  // indexed by name id
  std::uint32_t threads = 0;       // thread 0 is the tracer's creator
};

class Tracer {
 public:
  /// Parent argument meaning "the innermost open span on this thread".
  static constexpr std::uint64_t kInherit = ~0ULL;

  explicit Tracer(std::vector<std::string> names);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Id of a registered name; throws std::invalid_argument if unknown.
  [[nodiscard]] std::uint32_t id(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Open a span on the calling thread and return its id.
  std::uint64_t begin(std::uint32_t name, std::uint64_t parent = kInherit);
  /// Close the innermost open span of the calling thread, which must be `id`.
  void end(std::uint64_t id);
  /// Fold a finished leaf of `ns` nanoseconds covering `items` units of work.
  void leaf(std::uint32_t name, std::int64_t ns, std::uint64_t items);

  /// Every span and leaf total so far. Call only once traced work joined.
  [[nodiscard]] TraceResult collect() const;

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name, std::uint64_t parent = kInherit)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    std::uint64_t id_;
  };

 private:
  struct ThreadBuffer {
    std::uint32_t index = 0;
    std::uint64_t next_local = 1;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // indices into spans, innermost last
    std::vector<LeafTotals> leaves;
  };
  ThreadBuffer& local();

  const std::uint64_t serial_;
  const std::vector<std::string> names_;
  mutable std::mutex mu_;  // guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Total length covered by a set of half-open [start, end) intervals.
[[nodiscard]] std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Self time of every span (index-aligned with `spans`): its duration minus
/// the union of its children's intervals clipped to it — children on any
/// thread — minus its folded leaves; never negative.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Summed busy time of every thread except `skip_thread`: per thread, the
/// union of all its span intervals.
[[nodiscard]] std::int64_t thread_busy_ns(const std::vector<Span>& spans,
                                          std::uint32_t skip_thread);

}  // namespace perfbench
