// Index micro-benchmarks (google-benchmark): build, query, and update costs
// of the segment indexes backing Fig. 5's end-to-end numbers, the local
// stage's reused-index cycle (Reset + Build + kNN per trajectory), the
// shared-index reader-scaling study, and the window audit's vertex fast
// path against its index-only reference. Every query runs through a warm,
// caller-provided SearchContext (the allocation-free steady state).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/modifier.h"
#include "core/pipeline.h"
#include "index/search_context.h"
#include "index/segment_index.h"
#include "runtime/shard_plan.h"
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

// The local stage's per-trajectory cycle on its one reused index: Reset to
// the trajectory's grid, as deep as the local stage makes it
// (LocalIndexLevels of its segment count, capped at the default 10
// levels), Build its 80 segments, then a handful of segment-mode kNN (the
// insertion-site searches). Sixteen random-walk trajectories with
// different extents rotate, so every Reset re-targets the grid; items are
// trajectories.
void BM_IndexResetBuild(benchmark::State& state) {
  const auto strategy = StrategyOf(static_cast<int>(state.range(0)));
  struct Traj {
    GridSpec grid;
    std::vector<SegmentEntry> segments;
  };
  std::vector<Traj> trajs;
  Rng rng(8);
  for (int t = 0; t < 16; ++t) {
    const double extent = rng.Uniform(1000, 8000);
    Point p{rng.Uniform(0, kRegion), rng.Uniform(0, kRegion)};
    BBox box = BBox::Of(p, p);
    std::vector<SegmentEntry> segments;
    for (SegmentHandle h = 0; h < 80; ++h) {
      const Point next{p.x + rng.Uniform(-extent / 10, extent / 10),
                       p.y + rng.Uniform(-extent / 10, extent / 10)};
      segments.push_back(SegmentEntry{h, 0, Segment{p, next}});
      box.Extend(next);
      p = next;
    }
    const int levels = LocalIndexLevels(segments.size(), 10);
    trajs.push_back(Traj{GridSpec(box, levels), std::move(segments)});
  }
  auto index = MakeSegmentIndex(strategy, MicroGrid());
  SearchContext ctx;
  SearchOptions options;
  options.k = 2;
  size_t next = 0;
  for (auto _ : state) {
    const Traj& t = trajs[next++ % trajs.size()];
    index->Reset(t.grid);
    benchmark::DoNotOptimize(index->Build(t.segments));
    for (size_t i = 0; i < t.segments.size(); i += 10) {
      benchmark::DoNotOptimize(
          index->KNearest(t.segments[i].geom.b, options, &ctx));
    }
  }
  state.SetLabel(std::string(SearchStrategyName(strategy)));
  state.SetItemsProcessed(state.iterations());
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

// The window audit of that release, serial. range(0) = 1 runs the
// one-part RunWindowAudit (vertex table first, then one nearest-segment
// search of the part's tree per distinct remaining coordinate); 4 runs it
// over four parts, one per quarter of the input trajectories, as a
// 4-shard batch builds them (the part builds are timed too); 0 runs the
// index-only reference: a k=1 search for every published point over an
// input-order HG+ build. All three report the same displacement (the
// reference sums in another order, so its sum may differ in the last
// bits); CI asserts vertex_hit_frac >= 0.5, fewer evals_per_point on the
// fast path than index-only, and equal points and displacement_sum on the
// 4-part and 1-part arms. build_ns_per_segment is the part builds (tree
// and vertex table; WindowAuditReport::build_seconds) or the HG+ build
// (entries and Build) per original segment.
void BM_WindowAudit(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  const AuditWorkload& w = TaxiRelease();
  WindowAuditConfig config;
  config.enabled = true;
  uint64_t runs = 0;
  uint64_t points = 0;
  uint64_t evals = 0;
  uint64_t hits = 0;
  double displacement_sum = 0.0;
  double build_seconds = 0.0;
  for (auto _ : state) {
    ++runs;
    if (parts > 0) {
      WindowAuditReport report;
      if (parts == 1) {
        report = RunWindowAudit(w.original, w.published, config, nullptr);
      } else {
        std::vector<WindowAuditPart> built;
        for (const ShardRange& range : PlanShards(w.original.size(), parts)) {
          built.emplace_back(w.original, range, config);
        }
        report = RunWindowAudit(built, w.published, config, nullptr);
      }
      points += report.points_audited;
      evals += report.distance_evaluations;
      hits += report.vertex_hits;
      build_seconds += report.build_seconds;
      displacement_sum = report.mean_displacement *
                         static_cast<double>(report.points_audited);
      continue;
    }
    Stopwatch build_watch;
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
    auto index = MakeSegmentIndex(SearchStrategy::kBottomUpDown,
                                  GridSpec(region, 10));
    (void)index->Build(entries);
    build_seconds += build_watch.ElapsedSeconds();
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
    displacement_sum = sum;
    evals += index->distance_evaluations();
  }
  state.SetLabel(parts == 0 ? "index-only"
                            : "vertex-table/" + std::to_string(parts) +
                                  "-part");
  state.SetItemsProcessed(static_cast<int64_t>(points));
  const double n = static_cast<double>(std::max<uint64_t>(points, 1));
  state.counters["evals_per_point"] =
      benchmark::Counter(static_cast<double>(evals) / n);
  state.counters["vertex_hit_frac"] =
      benchmark::Counter(static_cast<double>(hits) / n);
  // Per audit run: equal on every arm that shares the summation order.
  state.counters["points"] = benchmark::Counter(
      static_cast<double>(points) /
      static_cast<double>(std::max<uint64_t>(runs, 1)));
  state.counters["displacement_sum"] = benchmark::Counter(displacement_sum);
  size_t segments = 0;
  for (const Trajectory& t : w.original.trajectories()) {
    segments += t.NumSegments();
  }
  state.counters["build_ns_per_segment"] = benchmark::Counter(
      build_seconds * 1e9 /
      (static_cast<double>(std::max<uint64_t>(runs, 1)) *
       static_cast<double>(std::max<size_t>(segments, 1))));
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
BENCHMARK(BM_IndexResetBuild)->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexUpdate)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy = 0; strategy < 5; ++strategy) b->Args({strategy});
})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WindowAudit)->Arg(1)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace frt

BENCHMARK_MAIN();
