#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_serial{1};

// The calling thread's buffer per tracer, keyed by the tracer's serial
// (never reused, so a destroyed tracer's entry can never match a new one).
struct LocalEntry {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local std::vector<LocalEntry> tls_buffers;

}  // namespace

Tracer::Tracer(std::vector<std::string> names)
    : serial_(g_next_serial.fetch_add(1)),
      names_(std::move(names)) {
  (void)local();  // the creator is thread 0
}

std::uint32_t Tracer::id(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  throw std::invalid_argument("perfbench: unknown span name " +
                              std::string(name));
}

Tracer::ThreadBuffer& Tracer::local() {
  for (const LocalEntry& e : tls_buffers) {
    if (e.serial == serial_) return *static_cast<ThreadBuffer*>(e.buffer);
  }
  auto buf = std::make_unique<ThreadBuffer>();
  buf->leaves.resize(names_.size());
  buf->spans.reserve(1U << 12);
  ThreadBuffer* raw = buf.get();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    raw->index = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buf));
  }
  tls_buffers.push_back({serial_, raw});
  return *raw;
}

std::uint64_t Tracer::begin(std::uint32_t name, std::uint64_t parent) {
  ThreadBuffer& buf = local();
  if (parent == kInherit) {
    parent = buf.open.empty() ? 0 : buf.spans[buf.open.back()].id;
  }
  Span s;
  s.id = (static_cast<std::uint64_t>(buf.index) + 1) << 40 | buf.next_local++;
  s.parent = parent;
  s.name = name;
  s.thread = buf.index;
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back(s);
  buf.spans.back().start_ns = now_ns();
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  ThreadBuffer& buf = local();
  if (buf.open.empty() || buf.spans[buf.open.back()].id != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  buf.spans[buf.open.back()].end_ns = t;
  buf.open.pop_back();
}

void Tracer::leaf(std::uint32_t name, std::int64_t ns, std::uint64_t items) {
  ThreadBuffer& buf = local();
  LeafTotals& l = buf.leaves[name];
  l.ns += ns;
  l.calls += 1;
  l.items += items;
  if (!buf.open.empty()) buf.spans[buf.open.back()].folded_ns += ns;
}

TraceResult Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mu_);
  TraceResult out;
  out.leaves.resize(names_.size());
  out.threads = static_cast<std::uint32_t>(buffers_.size());
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  out.spans.reserve(total);
  for (const auto& b : buffers_) {
    out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out.leaves[i].ns += b->leaves[i].ns;
      out.leaves[i].calls += b->leaves[i].calls;
      out.leaves[i].items += b->leaves[i].items;
    }
  }
  return out;
}

std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // (parent index, clipped child interval), grouped by parent.
  struct Edge {
    std::size_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Edge> edges;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) edges.push_back({it->second, a, b});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.parent < y.parent; });

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns - spans[i].folded_ns;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> group;
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    group.clear();
    while (j < edges.size() && edges[j].parent == edges[i].parent) {
      group.emplace_back(edges[j].start, edges[j].end);
      ++j;
    }
    self[edges[i].parent] -= union_length(group);
    i = j;
  }
  for (std::int64_t& v : self) v = std::max<std::int64_t>(v, 0);
  return self;
}

std::int64_t thread_busy_ns(const std::vector<Span>& spans,
                            std::uint32_t skip_thread) {
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      per_thread;
  for (const Span& s : spans) {
    if (s.thread == skip_thread) continue;
    per_thread[s.thread].emplace_back(s.start_ns, s.end_ns);
  }
  std::int64_t total = 0;
  for (auto& [thread, intervals] : per_thread) {
    (void)thread;
    total += union_length(std::move(intervals));
  }
  return total;
}

}  // namespace perfbench
