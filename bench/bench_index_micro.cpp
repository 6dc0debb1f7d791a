// Index micro-benchmarks (google-benchmark): build, query, and update costs
// of the segment indexes backing Fig. 5's end-to-end numbers, the
// shared-index reader-scaling study, and the window audit's vertex fast
// path against its index-only reference. Every query runs through a warm,
// caller-provided SearchContext (the allocation-free steady state).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "index/search_context.h"
#include "index/segment_index.h"
#include "runtime/window_audit.h"
#include "synth/workload.h"

namespace frt {
namespace {

constexpr double kRegion = 20000.0;

GridSpec MicroGrid() {
  return GridSpec(BBox::Of({0, 0}, {kRegion, kRegion}), 10);  // 512x512
}

std::vector<SegmentEntry> RandomSegments(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SegmentEntry> out;
  out.reserve(n);
  for (size_t h = 0; h < n; ++h) {
    const Point a{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    const Point b{std::clamp(a.x + rng.Uniform(-600, 600), 0.0, kRegion),
                  std::clamp(a.y + rng.Uniform(-600, 600), 0.0, kRegion)};
    out.push_back(SegmentEntry{h, static_cast<TrajId>(h % 256),
                               Segment{a, b}});
  }
  return out;
}

SearchStrategy StrategyOf(int index) {
  static const SearchStrategy kAll[] = {
      SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
      SearchStrategy::kBottomUpDown};
  return kAll[index];
}

void BM_IndexBuild(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  const auto segments = RandomSegments(
      static_cast<size_t>(state.range(1)), 1);
  for (auto _ : state) {
    auto index = MakeSegmentIndex(strategy, MicroGrid());
    for (const auto& e : segments) benchmark::DoNotOptimize(index->Insert(e));
    benchmark::DoNotOptimize(index->size());
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(segments.size()));
}

void BM_IndexKnnSegments(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  const auto segments = RandomSegments(
      static_cast<size_t>(state.range(1)), 2);
  auto index = MakeSegmentIndex(strategy, MicroGrid());
  (void)index->Build(segments);
  Rng rng(3);
  SearchOptions options;
  options.k = 8;
  SearchContext ctx;
  const uint64_t evals_before = index->distance_evaluations();
  for (auto _ : state) {
    const Point q{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    benchmark::DoNotOptimize(index->KNearest(q, options, &ctx));
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
  state.counters["dist_evals_per_query"] = benchmark::Counter(
      static_cast<double>(index->distance_evaluations() - evals_before) /
      static_cast<double>(state.iterations()));
}

void BM_IndexKnnTrajectories(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  const auto segments = RandomSegments(
      static_cast<size_t>(state.range(1)), 4);
  auto index = MakeSegmentIndex(strategy, MicroGrid());
  for (const auto& e : segments) (void)index->Insert(e);
  Rng rng(5);
  SearchOptions options;
  options.k = 8;
  options.group_by = GroupBy::kTrajectory;
  SearchContext ctx;
  for (auto _ : state) {
    const Point q{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    benchmark::DoNotOptimize(index->KNearest(q, options, &ctx));
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
}

// Bulk Build vs one-at-a-time Insert: the IntraTrajectoryModifier::Apply
// pattern (a throwaway per-trajectory index built in one shot).
void BM_IndexBulkBuild(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  const auto segments = RandomSegments(
      static_cast<size_t>(state.range(1)), 1);
  for (auto _ : state) {
    auto index = MakeSegmentIndex(strategy, MicroGrid());
    benchmark::DoNotOptimize(index->Build(segments));
    benchmark::DoNotOptimize(index->size());
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(segments.size()));
}

void BM_IndexUpdate(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  const auto segments = RandomSegments(20000, 6);
  auto index = MakeSegmentIndex(strategy, MicroGrid());
  for (const auto& e : segments) (void)index->Insert(e);
  Rng rng(7);
  SegmentHandle next = segments.size();
  for (auto _ : state) {
    // Remove a random live segment and insert a fresh one (the
    // ModifyAndUpdate pattern of Algorithm 3).
    const SegmentHandle victim =
        rng.UniformInt(uint64_t{segments.size()});
    state.PauseTiming();
    const bool removable = victim < segments.size();
    state.ResumeTiming();
    if (removable) {
      (void)index->Remove(segments[victim].handle);
      SegmentEntry e = segments[victim];
      e.handle = next++;
      (void)index->Insert(e);
      // Keep handle bookkeeping simple: re-register under the old handle.
      (void)index->Remove(e.handle);
      e.handle = segments[victim].handle;
      (void)index->Insert(e);
    }
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
}

// Reader scaling: N threads query ONE shared 100k-segment HG+ index
// concurrently, each through its own SearchContext (the documented
// contract). Aggregate items/s across 1/2/4/8 readers is the scaling
// curve; on a multi-core host 4 readers should deliver >= 3x the
// 1-reader aggregate.
void BM_IndexKnnSharedReaders(benchmark::State& state) {
  static const SegmentIndex* shared = [] {
    auto index =
        MakeSegmentIndex(SearchStrategy::kBottomUpDown, MicroGrid());
    const auto segments = RandomSegments(100000, 2);
    (void)index->Build(segments);
    return index.release();
  }();
  Rng rng(300 + static_cast<uint64_t>(state.thread_index()));
  SearchOptions options;
  options.k = 8;
  SearchContext ctx;
  for (auto _ : state) {
    const Point q{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    benchmark::DoNotOptimize(shared->KNearest(q, options, &ctx));
  }
  state.SetLabel("HG+/shared");
  state.SetItemsProcessed(state.iterations());
  // kAvgThreads: gbench sums plain counters across threads; the whole
  // point of this variant is that ONE build serves every reader.
  state.counters["index_builds"] =
      benchmark::Counter(1.0, benchmark::Counter::kAvgThreads);
}

// The A/B baseline: every reader builds its own private copy of the same
// index (the pre-shared-index world: one rebuild per worker). The build
// happens per thread before the timed loop; query throughput should match
// the shared variant — concurrent reads of one index cost nothing — while
// index_builds counts the duplicated build work.
void BM_IndexKnnPrivateReaders(benchmark::State& state) {
  const auto segments = RandomSegments(100000, 2);
  auto index = MakeSegmentIndex(SearchStrategy::kBottomUpDown, MicroGrid());
  (void)index->Build(segments);
  Rng rng(300 + static_cast<uint64_t>(state.thread_index()));
  SearchOptions options;
  options.k = 8;
  SearchContext ctx;
  for (auto _ : state) {
    const Point q{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    benchmark::DoNotOptimize(index->KNearest(q, options, &ctx));
  }
  state.SetLabel("HG+/private");
  state.SetItemsProcessed(state.iterations());
  state.counters["index_builds"] = benchmark::Counter(
      static_cast<double>(state.threads()), benchmark::Counter::kAvgThreads);
}

// A 500-taxi workload and its FRT release (default pipeline: GL, m=10,
// eps_G = eps_L = 0.5, HG+) — the input and output of one
// frt_anonymize run.
struct AuditWorkload {
  Dataset original;
  Dataset published;
};

const AuditWorkload& TaxiRelease() {
  static const AuditWorkload* workload = [] {
    WorkloadConfig config;
    config.num_taxis = 500;
    config.target_points = 60;
    auto generated = GenerateTaxiWorkload(config, RoadGenConfig{}, 3);
    auto* out = new AuditWorkload;
    out->original = std::move(generated->dataset);
    FrequencyRandomizer pipeline{FrequencyRandomizerConfig{}};
    Rng rng(42);
    out->published = std::move(*pipeline.Anonymize(out->original, rng));
    return out;
  }();
  return *workload;
}

// The window audit of that release, serial. range(0) = 1 runs
// RunWindowAudit (vertex table first, k=1 search for the rest); 0 runs the
// index-only reference: a k=1 search for every published point over an
// input-order HG+ build. The two report the same displacement; CI asserts
// vertex_hit_frac >= 0.5 and fewer evals_per_point on the fast path.
void BM_WindowAudit(benchmark::State& state) {
  const bool fast_path = state.range(0) != 0;
  const AuditWorkload& w = TaxiRelease();
  WindowAuditConfig config;
  config.enabled = true;
  uint64_t points = 0;
  uint64_t evals = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    if (fast_path) {
      const WindowAuditReport report =
          RunWindowAudit(w.original, w.published, config, nullptr);
      points += report.points_audited;
      evals += report.distance_evaluations;
      hits += report.vertex_hits;
      continue;
    }
    std::vector<SegmentEntry> entries;
    BBox region = BBox::Empty();
    for (const Trajectory& t : w.original.trajectories()) {
      for (size_t i = 0; i < t.NumSegments(); ++i) {
        const Segment s = t.SegmentAt(i);
        entries.push_back(SegmentEntry{entries.size(), t.id(), s});
        region.Extend(s.a);
        region.Extend(s.b);
      }
    }
    auto index = MakeSegmentIndex(config.strategy,
                                  GridSpec(region, config.index_levels));
    (void)index->Build(entries);
    SearchContext ctx;
    SearchOptions options;
    options.k = 1;
    double sum = 0.0;
    for (const Trajectory& t : w.published.trajectories()) {
      for (const TimedPoint& tp : t.points()) {
        const Span<const Neighbor> hit = index->KNearest(tp.p, options, &ctx);
        if (hit.empty()) continue;
        ++points;
        sum += hit[0].dist;
      }
    }
    benchmark::DoNotOptimize(sum);
    evals += index->distance_evaluations();
  }
  state.SetLabel(fast_path ? "vertex-table" : "index-only");
  state.SetItemsProcessed(static_cast<int64_t>(points));
  const double n = static_cast<double>(std::max<uint64_t>(points, 1));
  state.counters["evals_per_point"] =
      benchmark::Counter(static_cast<double>(evals) / n);
  state.counters["vertex_hit_frac"] =
      benchmark::Counter(static_cast<double>(hits) / n);
}

void StrategySizes(benchmark::internal::Benchmark* b) {
  for (int strategy = 0; strategy < 5; ++strategy) {
    for (const int64_t size : {20000, 100000}) {
      b->Args({strategy, size});
    }
  }
}

BENCHMARK(BM_IndexBuild)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy = 0; strategy < 5; ++strategy) b->Args({strategy, 20000});
})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexKnnSegments)->Apply(StrategySizes)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexKnnTrajectories)->Apply(StrategySizes)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexKnnSharedReaders)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_IndexKnnPrivateReaders)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_IndexBulkBuild)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy = 0; strategy < 5; ++strategy) b->Args({strategy, 20000});
})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexUpdate)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy = 0; strategy < 5; ++strategy) b->Args({strategy});
})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WindowAudit)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace frt

BENCHMARK_MAIN();
