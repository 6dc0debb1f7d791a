// Concurrent-reader equivalence suite: the exactness guard for the
// shared-index concurrency contract (index/segment_index.h).
//
// KNearest is documented read-only and thread-safe between mutations: all
// per-query state lives in the caller's SearchContext and the only shared
// write is a relaxed atomic counter. These tests drive N threads through
// ONE shared index and assert the results are bit-identical (exact double
// equality, not tolerance) to a serial pass — across every search strategy
// and both grouping modes — and bit-identical to threads using private
// index copies. Run under TSan in CI, where any stray shared write the
// stamp refactor missed becomes a hard failure. The same holds on an arena
// churned by removals, whose free-listed slots the stamps must still cover.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/hierarchical_grid_index.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {
namespace {

constexpr double kRegionSize = 10000.0;
constexpr size_t kNumThreads = 8;

GridSpec TestGrid() {
  return GridSpec(BBox::Of({0, 0}, {kRegionSize, kRegionSize}), 10);
}

std::vector<SegmentEntry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SegmentEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const Point b{std::clamp(a.x + rng.Uniform(-600.0, 600.0), 0.0,
                             kRegionSize),
                  std::clamp(a.y + rng.Uniform(-600.0, 600.0), 0.0,
                             kRegionSize)};
    entries.push_back(SegmentEntry{static_cast<SegmentHandle>(i),
                                   static_cast<TrajId>(i % 97),
                                   Segment{a, b}});
  }
  return entries;
}

std::vector<Point> RandomQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(
        {rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)});
  }
  return queries;
}

/// Flattened (handle, dist) answer sheet for a query sequence; compared
/// with exact equality so any numeric or ordering divergence fails.
struct AnswerSheet {
  std::vector<SegmentHandle> handles;
  std::vector<double> dists;
  std::vector<size_t> counts;

  void Record(Span<const Neighbor> hits) {
    counts.push_back(hits.size());
    for (const Neighbor& n : hits) {
      handles.push_back(n.entry.handle);
      dists.push_back(n.dist);
    }
  }
};

void ExpectIdentical(const AnswerSheet& got, const AnswerSheet& want,
                     const std::string& label) {
  ASSERT_EQ(got.counts, want.counts) << label;
  ASSERT_EQ(got.handles, want.handles) << label;
  ASSERT_EQ(got.dists.size(), want.dists.size()) << label;
  for (size_t i = 0; i < got.dists.size(); ++i) {
    // Bit-identical, not approximately equal.
    ASSERT_EQ(got.dists[i], want.dists[i]) << label << " at " << i;
  }
}

const SearchStrategy kAllStrategies[] = {
    SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
    SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
    SearchStrategy::kBottomUpDown,
};
const GroupBy kAllModes[] = {GroupBy::kSegment, GroupBy::kTrajectory};

class ConcurrentReaderTest
    : public ::testing::TestWithParam<SearchStrategy> {};

// N threads share one index; per-thread answer sheets over disjoint query
// ranges must equal the serial pass over the same ranges, bit for bit.
TEST_P(ConcurrentReaderTest, SharedIndexMatchesSerialBitIdentical) {
  const auto entries = RandomEntries(4000, 17);
  const auto queries = RandomQueries(400, 23);
  const auto index = MakeSegmentIndex(GetParam(), TestGrid());
  ASSERT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());

  for (const GroupBy mode : kAllModes) {
    SearchOptions options;
    options.k = 8;
    options.group_by = mode;

    const size_t per_thread = queries.size() / kNumThreads;
    const uint64_t evals_start = index->distance_evaluations();
    std::vector<AnswerSheet> serial(kNumThreads);
    {
      SearchContext ctx;
      for (size_t t = 0; t < kNumThreads; ++t) {
        for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
          serial[t].Record(index->KNearest(queries[i], options, &ctx));
        }
      }
    }
    const uint64_t serial_evals =
        index->distance_evaluations() - evals_start;

    std::vector<AnswerSheet> concurrent(kNumThreads);
    std::vector<std::thread> threads;
    threads.reserve(kNumThreads);
    for (size_t t = 0; t < kNumThreads; ++t) {
      threads.emplace_back([&, t] {
        SearchContext ctx;  // one context per thread (the contract)
        for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
          concurrent[t].Record(index->KNearest(queries[i], options, &ctx));
        }
      });
    }
    for (std::thread& th : threads) th.join();

    const std::string label =
        std::string(SearchStrategyName(GetParam())) +
        (mode == GroupBy::kSegment ? "/segment" : "/trajectory");
    for (size_t t = 0; t < kNumThreads; ++t) {
      ExpectIdentical(concurrent[t], serial[t], label);
    }
    // Same queries -> same per-query eval counts; the relaxed-atomic total
    // is exact because additions commute.
    EXPECT_EQ(index->distance_evaluations(), evals_start + 2 * serial_evals)
        << label;
  }
}

// Threads reading the shared index produce the same bits as threads that
// each build a private copy — why the runtime's window audit builds its
// index once and shares it.
TEST_P(ConcurrentReaderTest, SharedMatchesPrivateCopies) {
  const auto entries = RandomEntries(3000, 31);
  const auto queries = RandomQueries(240, 37);
  const auto shared = MakeSegmentIndex(GetParam(), TestGrid());
  ASSERT_TRUE(shared->Build(Span<const SegmentEntry>(entries)).ok());

  SearchOptions options;
  options.k = 6;
  options.group_by = GroupBy::kSegment;

  const size_t per_thread = queries.size() / kNumThreads;
  std::vector<AnswerSheet> from_shared(kNumThreads);
  std::vector<AnswerSheet> from_private(kNumThreads);
  std::vector<std::thread> threads;
  threads.reserve(kNumThreads);
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      SearchContext ctx;
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        from_shared[t].Record(shared->KNearest(queries[i], options, &ctx));
      }
      const auto mine = MakeSegmentIndex(GetParam(), TestGrid());
      ASSERT_TRUE(mine->Build(Span<const SegmentEntry>(entries)).ok());
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        from_private[t].Record(mine->KNearest(queries[i], options, &ctx));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kNumThreads; ++t) {
    ExpectIdentical(from_shared[t], from_private[t],
                    std::string(SearchStrategyName(GetParam())));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ConcurrentReaderTest,
                         ::testing::ValuesIn(kAllStrategies));

// ---------------- churned arena ----------------

// Removals splice empty cells onto the free list, leaving dead slots
// between live ones; concurrent readers must still match a serial pass.
TEST(ChurnedArenaTest, ConcurrentReadersMatchSerial) {
  const auto entries = RandomEntries(2500, 71);
  const auto queries = RandomQueries(160, 73);
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  ASSERT_TRUE(index.Build(Span<const SegmentEntry>(entries)).ok());
  const size_t built_cells = index.NumCells();
  for (size_t i = 0; i < entries.size(); i += 3) {
    ASSERT_TRUE(index.Remove(entries[i].handle).ok());
  }
  // Fewer live cells in an arena that never shrinks: slots are free-listed.
  ASSERT_LT(index.NumCells(), built_cells);

  SearchOptions options;
  options.k = 8;
  const size_t per_thread = queries.size() / kNumThreads;
  std::vector<AnswerSheet> serial(kNumThreads);
  {
    SearchContext ctx;
    for (size_t t = 0; t < kNumThreads; ++t) {
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        serial[t].Record(index.KNearest(queries[i], options, &ctx));
      }
    }
  }
  std::vector<AnswerSheet> concurrent(kNumThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      SearchContext ctx;
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        concurrent[t].Record(index.KNearest(queries[i], options, &ctx));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kNumThreads; ++t) {
    ExpectIdentical(concurrent[t], serial[t], "churned arena");
  }
}

}  // namespace
}  // namespace frt
