// Steady-state allocation guard for the index hot path: KNearest with a
// caller-provided, warmed-up SearchContext must perform ZERO heap
// allocations, for every strategy and both grouping modes; and so must the
// local stage's whole per-trajectory cycle on a warm index (Reset, Build,
// KNearest), as long as no set is larger than one the index has held.
//
// Counting is done by replacing the global operator new/delete with
// malloc-backed versions that bump a counter. Under ASan/MSan the runtime
// owns the allocator, so there the test degrades to a pure smoke run
// (GTEST_SKIP) — the Release CI leg provides the real guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.h"
#include "index/search_context.h"
#include "index/segment_index.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FRT_ALLOC_COUNTING_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer) || \
    __has_feature(thread_sanitizer)
#define FRT_ALLOC_COUNTING_DISABLED 1
#endif
#endif

#ifndef FRT_ALLOC_COUNTING_DISABLED

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !FRT_ALLOC_COUNTING_DISABLED

namespace frt {
namespace {

constexpr double kRegionSize = 10000.0;

std::vector<SegmentEntry> RandomSegments(size_t n) {
  Rng rng(4242);
  std::vector<SegmentEntry> out;
  out.reserve(n);
  for (SegmentHandle h = 0; h < n; ++h) {
    const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const Point b{std::clamp(a.x + rng.Uniform(-500, 500), 0.0, kRegionSize),
                  std::clamp(a.y + rng.Uniform(-500, 500), 0.0, kRegionSize)};
    out.push_back(
        SegmentEntry{h, static_cast<TrajId>(h % 64), Segment{a, b}});
  }
  return out;
}

TEST(IndexAllocTest, WarmContextQueriesAreAllocationFree) {
  const GridSpec grid(BBox::Of({0, 0}, {kRegionSize, kRegionSize}), 10);
  const auto segments = RandomSegments(20000);
  for (const SearchStrategy strategy :
       {SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
        SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
        SearchStrategy::kBottomUpDown}) {
    SCOPED_TRACE(std::string(SearchStrategyName(strategy)));
    auto index = MakeSegmentIndex(strategy, grid);
    ASSERT_TRUE(index->Build(segments).ok());

    SearchContext ctx;
    // The warm-up replays the exact query sequence measured afterwards
    // (same seed), so every scratch buffer provably reaches the high-water
    // mark the measured phase needs.
    const auto run_queries = [&](int count) {
      Rng rng(99);
      for (int i = 0; i < count; ++i) {
        const Point q{rng.Uniform(0, kRegionSize),
                      rng.Uniform(0, kRegionSize)};
        for (const GroupBy mode :
             {GroupBy::kSegment, GroupBy::kTrajectory}) {
          SearchOptions options;
          options.k = 8;
          options.group_by = mode;
          const auto results = index->KNearest(q, options, &ctx);
          ASSERT_EQ(results.size(), 8u);
        }
      }
    };

    // Warm-up: buffers grow to their high-water mark.
    run_queries(100);

#ifdef FRT_ALLOC_COUNTING_DISABLED
    run_queries(100);
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
    const uint64_t before = g_allocations;
    run_queries(100);
    EXPECT_EQ(g_allocations, before)
        << "steady-state KNearest allocated on the heap";
#endif
  }
}

TEST(IndexAllocTest, WarmResetBuildQueryCycleIsAllocationFree) {
  // Twelve trajectory-sized sets (40-150 segments) over different grids.
  std::vector<std::vector<SegmentEntry>> sets;
  std::vector<GridSpec> grids;
  Rng rng(31337);
  for (int i = 0; i < 12; ++i) {
    const double extent = rng.Uniform(500, 5000);
    const Point origin{rng.Uniform(0, kRegionSize - extent),
                       rng.Uniform(0, kRegionSize - extent)};
    const size_t n = 40 + rng.UniformInt(uint64_t{111});
    std::vector<SegmentEntry> set;
    Point p{origin.x + extent / 2, origin.y + extent / 2};
    for (SegmentHandle h = 0; h < n; ++h) {
      const Point next{
          std::clamp(p.x + rng.Uniform(-extent / 20, extent / 20), origin.x,
                     origin.x + extent),
          std::clamp(p.y + rng.Uniform(-extent / 20, extent / 20), origin.y,
                     origin.y + extent)};
      set.push_back(SegmentEntry{h, 0, Segment{p, next}});
      p = next;
    }
    sets.push_back(std::move(set));
    grids.emplace_back(
        BBox::Of(origin, {origin.x + extent, origin.y + extent}), 10);
  }
  for (const SearchStrategy strategy :
       {SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
        SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
        SearchStrategy::kBottomUpDown}) {
    SCOPED_TRACE(std::string(SearchStrategyName(strategy)));
    auto index = MakeSegmentIndex(strategy, grids[0]);
    SearchContext ctx;
    // One pass is what a LocalMechanism::Apply does per trajectory; the
    // measured pass replays the warm-up pass, so no set is larger than
    // one the index (or any one of its cells) already held.
    const auto run_pass = [&] {
      for (size_t i = 0; i < sets.size(); ++i) {
        index->Reset(grids[i]);
        ASSERT_TRUE(index->Build(sets[i]).ok());
        const Segment& s = sets[i][sets[i].size() / 2].geom;
        SearchOptions options;
        options.k = 3;
        const auto hits = index->KNearest(s.a, options, &ctx);
        ASSERT_EQ(hits.size(), 3u);
      }
    };
    run_pass();

#ifdef FRT_ALLOC_COUNTING_DISABLED
    run_pass();
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
    const uint64_t before = g_allocations;
    run_pass();
    EXPECT_EQ(g_allocations, before)
        << "warm Reset + Build + KNearest allocated on the heap";
#endif
  }
}

}  // namespace
}  // namespace frt
