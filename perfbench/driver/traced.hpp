// Wrappers the traced run puts around everything the benchmark passes into
// the library: a forwarding SampleSource decorator, SourceSpec and TesterRun
// wrappers, and a make_tester wrapper for declarative sweep points. Each
// only adds timing around a call it forwards unchanged, so a traced run
// draws the same samples from the same RNG streams as an untraced one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/sample_source.hpp"
#include "stats/harness.hpp"
#include "trace.hpp"

namespace perfbench {

/// Span and leaf name ids the wrappers use, resolved once per tracer.
struct LayerNames {
  std::uint32_t sample;       // sim.sample (leaf)
  std::uint32_t source_make;  // sim.source_make
  std::uint32_t trial;        // testers.trial
  std::uint32_t construct;    // testers.construct
};

/// Forwards every virtual of SampleSource to the wrapped source, timing the
/// drawing calls as `sim.sample` leaves.
class TracedSource final : public duti::SampleSource {
 public:
  TracedSource(std::unique_ptr<duti::SampleSource> inner, Tracer& tracer,
               std::uint32_t leaf_name)
      : inner_(std::move(inner)), tracer_(tracer), leaf_(leaf_name) {}

  [[nodiscard]] std::uint64_t sample(duti::Rng& rng) const override {
    const std::int64_t t0 = now_ns();
    const std::uint64_t v = inner_->sample(rng);
    tracer_.leaf(leaf_, now_ns() - t0, 1);
    return v;
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return inner_->domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override {
    return inner_->l1_from_uniform();
  }
  void sample_many(duti::Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->sample_many(rng, count, out);
    tracer_.leaf(leaf_, now_ns() - t0, count);
  }
  void sample_counts(duti::Rng& rng, std::size_t draws,
                     std::vector<std::uint64_t>& counts) const override {
    const std::int64_t t0 = now_ns();
    inner_->sample_counts(rng, draws, counts);
    tracer_.leaf(leaf_, now_ns() - t0, draws);
  }

 private:
  std::unique_ptr<duti::SampleSource> inner_;
  Tracer& tracer_;
  std::uint32_t leaf_;
};

/// The same factory, each call timed as a `sim.source_make` span under
/// `parent` and its product decorated. Keeps the spec's trial_invariant
/// promise, so the probe loops still build trial-invariant sources once per
/// worker.
[[nodiscard]] inline duti::SourceSpec traced_spec(const duti::SourceSpec& spec,
                                                  Tracer& tracer,
                                                  const LayerNames& names,
                                                  std::uint64_t parent) {
  return duti::SourceSpec(
      [factory = spec.factory(), &tracer, names,
       parent](duti::Rng& rng) -> std::unique_ptr<duti::SampleSource> {
        const Tracer::Scope span(&tracer, names.source_make, parent);
        return std::make_unique<TracedSource>(factory(rng), tracer,
                                              names.sample);
      },
      spec.trial_invariant());
}

/// The same tester run, each call timed as a `testers.trial` span.
[[nodiscard]] inline duti::TesterRun traced_run(duti::TesterRun run,
                                                Tracer& tracer,
                                                const LayerNames& names,
                                                std::uint64_t parent) {
  return [run = std::move(run), &tracer, names, parent](
             const duti::SampleSource& src, duti::Rng& rng) {
    const Tracer::Scope span(&tracer, names.trial, parent);
    return run(src, rng);
  };
}

/// A SweepPoint::make_tester whose construction is a `testers.construct`
/// span and whose runs are traced.
[[nodiscard]] inline std::function<duti::TesterRun(std::uint64_t)>
traced_maker(std::function<duti::TesterRun(std::uint64_t)> make,
             Tracer& tracer, const LayerNames& names, std::uint64_t parent) {
  return [make = std::move(make), &tracer, names,
          parent](std::uint64_t value) -> duti::TesterRun {
    duti::TesterRun run;
    {
      const Tracer::Scope span(&tracer, names.construct, parent);
      run = make(value);
    }
    return traced_run(std::move(run), tracer, names, parent);
  };
}

}  // namespace perfbench
