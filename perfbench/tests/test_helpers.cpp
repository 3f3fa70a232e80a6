// Tests of the benchmark's own helpers: the percentile rule, span self time
// with nested and cross-thread children, and the forwarding sample-source
// decorator.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "stats/workloads.hpp"
#include "summary.hpp"
#include "trace.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending on purpose: the helpers must sort
}

TEST(PercentileRule, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PercentileRule, NoRungBelowTwentySamples) {
  const TailPercentile t = tail_percentile(ramp(19));
  EXPECT_EQ(t.percentile, 0.0);
}

TEST(PercentileRule, HighestRungWithTenBeyond) {
  struct Case {
    std::size_t n;
    double percentile;
    double value;
  };
  // Nearest rank ceil(p n / 100); the rung needs n - rank >= 10.
  for (const Case c : {Case{20, 50.0, 10.0}, Case{22, 50.0, 11.0},
                       Case{39, 50.0, 20.0}, Case{40, 75.0, 30.0},
                       Case{100, 90.0, 90.0}, Case{200, 95.0, 190.0},
                       Case{1000, 99.0, 990.0}, Case{10000, 99.9, 9990.0}}) {
    const TailPercentile t = tail_percentile(ramp(c.n));
    EXPECT_EQ(t.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(t.value, c.value) << "n=" << c.n;
    EXPECT_GE(t.beyond, 10U) << "n=" << c.n;
  }
}

Span make_span(std::uint64_t id, std::uint64_t parent, std::uint32_t thread,
               std::int64_t start, std::int64_t end, std::int64_t folded = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  s.folded_ns = folded;
  return s;
}

TEST(SpanSelfTime, NestedSameThreadChildrenCountOnce) {
  // Parent [0,100) with overlapping children [10,30) and [20,50): their
  // union is 40, and the grandchild [12,18) is the child's business only.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 0, 100), make_span(2, 1, 0, 10, 30),
      make_span(3, 1, 0, 20, 50), make_span(4, 2, 0, 12, 18)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SpanSelfTime, CrossThreadChildrenAreUnionedAndClipped) {
  // Children on threads 1 and 2 overlap each other and run past the
  // parent's end: covered = [40,100) = 60.
  const std::vector<Span> spans = {make_span(1, 0, 0, 0, 100),
                                   make_span(2, 1, 1, 40, 80),
                                   make_span(3, 1, 2, 60, 130)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 70);
}

TEST(SpanSelfTime, FoldedLeavesAreSubtracted) {
  const std::vector<Span> spans = {make_span(1, 0, 0, 0, 100, 25),
                                   make_span(2, 1, 0, 50, 70)};
  EXPECT_EQ(self_times(spans)[0], 55);
}

TEST(SpanSelfTime, BusyTimePerThreadIsAUnion) {
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 0, 1000),  // the skipped (client) thread
      make_span(2, 1, 1, 0, 50), make_span(3, 2, 1, 10, 20),
      make_span(4, 1, 2, 30, 60)};
  EXPECT_EQ(thread_busy_ns(spans, 0), 80);
}

TEST(Tracer, RecordsParentsAcrossThreadsAndFoldsLeaves) {
  Tracer tracer({"outer", "inner", "leaf"});
  const std::uint32_t outer = tracer.id("outer");
  const std::uint32_t inner = tracer.id("inner");
  const std::uint32_t leaf = tracer.id("leaf");
  std::uint64_t outer_id = 0;
  {
    const Tracer::Scope o(&tracer, outer);
    outer_id = o.id();
    {
      const Tracer::Scope same(&tracer, inner);  // inherits `outer`
      tracer.leaf(leaf, 7, 3);
    }
    std::thread worker([&] {
      const Tracer::Scope other(&tracer, inner, outer_id);
      tracer.leaf(leaf, 5, 2);
    });
    worker.join();
  }
  const TraceResult r = tracer.collect();
  ASSERT_EQ(r.spans.size(), 3U);
  EXPECT_EQ(r.threads, 2U);
  std::size_t children = 0;
  std::int64_t folded = 0;
  for (const Span& s : r.spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    if (s.name == inner) {
      EXPECT_EQ(s.parent, outer_id);
      folded += s.folded_ns;
      ++children;
    }
  }
  EXPECT_EQ(children, 2U);
  EXPECT_EQ(folded, 12);
  EXPECT_EQ(r.leaves[leaf].calls, 2U);
  EXPECT_EQ(r.leaves[leaf].items, 5U);
  EXPECT_EQ(r.leaves[leaf].ns, 12);
}

TEST(Tracer, ClosingOutOfOrderThrows) {
  Tracer tracer({"a"});
  const std::uint64_t first = tracer.begin(0);
  const std::uint64_t second = tracer.begin(0);
  EXPECT_THROW(tracer.end(first), std::logic_error);
  tracer.end(second);
  tracer.end(first);
}

// --- decorator forwarding ----------------------------------------------------

std::vector<std::unique_ptr<duti::SampleSource>> make_sources(std::uint64_t seed) {
  duti::Rng rng(seed);
  std::vector<std::unique_ptr<duti::SampleSource>> out;
  out.push_back(duti::workloads::uniform_factory(1000)(rng));
  out.push_back(duti::workloads::paninski_far_factory(1000, 0.5)(rng));
  out.push_back(duti::workloads::nu_z_far_factory(6, 0.5)(rng));
  return out;
}

TEST(TracedSource, ForwardsSamplesAndRngStateExactly) {
  Tracer tracer({"sim.sample"});
  const std::vector<std::unique_ptr<duti::SampleSource>> bare = make_sources(7);
  std::vector<std::unique_ptr<duti::SampleSource>> inner = make_sources(7);
  for (std::size_t i = 0; i < bare.size(); ++i) {
    const TracedSource traced(std::move(inner[i]), tracer, 0);
    ASSERT_EQ(traced.domain_size(), bare[i]->domain_size());
    ASSERT_EQ(traced.l1_from_uniform(), bare[i]->l1_from_uniform());
    for (const std::size_t draws : {std::size_t{1}, std::size_t{300},
                                    std::size_t{5000}}) {
      duti::Rng ra(11 + draws);
      duti::Rng rb(11 + draws);
      std::vector<std::uint64_t> a;
      std::vector<std::uint64_t> b;
      bare[i]->sample_many(ra, draws, a);
      traced.sample_many(rb, draws, b);
      EXPECT_EQ(a, b) << "source " << i << " sample_many " << draws;
      EXPECT_EQ(ra.state(), rb.state()) << "source " << i;

      bare[i]->sample_counts(ra, draws, a);
      traced.sample_counts(rb, draws, b);
      EXPECT_EQ(a, b) << "source " << i << " sample_counts " << draws;
      EXPECT_EQ(ra.state(), rb.state()) << "source " << i;

      EXPECT_EQ(bare[i]->sample(ra), traced.sample(rb));
      EXPECT_EQ(ra.state(), rb.state()) << "source " << i;
    }
  }
  const TraceResult r = tracer.collect();
  EXPECT_EQ(r.leaves[0].calls, 3U * 3U * 3U);
  EXPECT_EQ(r.leaves[0].items, 3U * (2U * (1 + 300 + 5000) + 3U));
}

TEST(TracedSource, SpecWrapperKeepsTrialInvariance) {
  Tracer tracer({"sim.sample", "sim.source_make", "testers.trial",
                 "testers.construct"});
  const LayerNames names{0, 1, 2, 3};
  const duti::SourceSpec uniform =
      traced_spec(duti::workloads::uniform_factory(64), tracer, names, 0);
  const duti::SourceSpec far =
      traced_spec(duti::workloads::paninski_far_factory(64, 0.5), tracer, names, 0);
  EXPECT_TRUE(uniform.trial_invariant());
  EXPECT_FALSE(far.trial_invariant());
  duti::Rng ra(3);
  duti::Rng rb(3);
  const auto bare = duti::workloads::paninski_far_factory(64, 0.5)(ra);
  const auto wrapped = far(rb);
  EXPECT_EQ(ra.state(), rb.state());
  EXPECT_EQ(bare->l1_from_uniform(), wrapped->l1_from_uniform());
  EXPECT_EQ(tracer.collect().spans.size(), 1U);  // one sim.source_make
}

}  // namespace
}  // namespace perfbench
