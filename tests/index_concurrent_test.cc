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
// stamp refactor missed becomes a hard failure.
//
// Also here: the batched-kernel A/B guard (SoA sweep vs scalar reference,
// same doubles and same distance_evaluations) and the Compact() exactness
// guard (same results, same eval counts, fewer arena slots).

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

// ---------------- batched kernel A/B ----------------

class BatchedKernelTest : public ::testing::TestWithParam<SearchStrategy> {};

// The SoA sweep and the scalar reference share one arithmetic kernel; the
// results AND the distance_evaluations counter must be bit-identical.
TEST_P(BatchedKernelTest, BatchedMatchesScalarBitIdentical) {
  const auto entries = RandomEntries(5000, 41);
  const auto queries = RandomQueries(300, 43);
  const auto index = MakeSegmentIndex(GetParam(), TestGrid());
  ASSERT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());

  for (const GroupBy mode : kAllModes) {
    SearchContext ctx;
    SearchOptions options;
    options.k = 8;
    options.group_by = mode;

    options.use_batched_kernel = true;
    const uint64_t before_batched = index->distance_evaluations();
    AnswerSheet batched;
    for (const Point& q : queries) {
      batched.Record(index->KNearest(q, options, &ctx));
    }
    const uint64_t batched_evals =
        index->distance_evaluations() - before_batched;

    options.use_batched_kernel = false;
    const uint64_t before_scalar = index->distance_evaluations();
    AnswerSheet scalar;
    for (const Point& q : queries) {
      scalar.Record(index->KNearest(q, options, &ctx));
    }
    const uint64_t scalar_evals =
        index->distance_evaluations() - before_scalar;

    const std::string label =
        std::string(SearchStrategyName(GetParam())) +
        (mode == GroupBy::kSegment ? "/segment" : "/trajectory");
    ExpectIdentical(batched, scalar, label);
    EXPECT_EQ(batched_evals, scalar_evals) << label;
  }
}

// With a filter, the batched path computes all lanes but must count and
// offer only eligible candidates — identical to the scalar loop.
TEST_P(BatchedKernelTest, FilteredSearchesMatch) {
  const auto entries = RandomEntries(2000, 47);
  const auto queries = RandomQueries(150, 53);
  const auto index = MakeSegmentIndex(GetParam(), TestGrid());
  ASSERT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());

  const auto even_traj = [](const SegmentEntry& e) {
    return e.traj % 2 == 0;
  };
  SearchContext ctx;
  SearchOptions options;
  options.k = 5;
  options.filter = even_traj;

  options.use_batched_kernel = true;
  const uint64_t b0 = index->distance_evaluations();
  AnswerSheet batched;
  for (const Point& q : queries) {
    batched.Record(index->KNearest(q, options, &ctx));
  }
  const uint64_t batched_evals = index->distance_evaluations() - b0;

  options.use_batched_kernel = false;
  const uint64_t s0 = index->distance_evaluations();
  AnswerSheet scalar;
  for (const Point& q : queries) {
    scalar.Record(index->KNearest(q, options, &ctx));
  }
  const uint64_t scalar_evals = index->distance_evaluations() - s0;

  ExpectIdentical(batched, scalar,
                  std::string(SearchStrategyName(GetParam())));
  EXPECT_EQ(batched_evals, scalar_evals);
  for (const SegmentHandle h : batched.handles) {
    EXPECT_EQ(entries[h].traj % 2, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(HgStrategies, BatchedKernelTest,
                         ::testing::Values(SearchStrategy::kTopDown,
                                           SearchStrategy::kBottomUp,
                                           SearchStrategy::kBottomUpDown));

// ---------------- Compact() ----------------

TEST(CompactTest, ReclaimsFreeSlotsAndPreservesResultsExactly) {
  auto entries = RandomEntries(3000, 59);
  const auto queries = RandomQueries(200, 61);
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  ASSERT_TRUE(index.Build(Span<const SegmentEntry>(entries)).ok());

  // Churn: removing segments empties cells onto the free list.
  Rng rng(67);
  std::vector<SegmentHandle> live;
  for (const SegmentEntry& e : entries) live.push_back(e.handle);
  for (int i = 0; i < 1200; ++i) {
    const size_t pick =
        static_cast<size_t>(rng.Uniform(0, static_cast<double>(live.size())));
    ASSERT_TRUE(index.Remove(live[pick]).ok());
    live[pick] = live.back();
    live.pop_back();
  }
  ASSERT_GT(index.Fragmentation(), 0.0);
  const size_t slots_before = index.ArenaSlots();

  SearchOptions options;
  options.k = 8;
  SearchContext ctx;
  AnswerSheet before;
  const uint64_t evals0 = index.distance_evaluations();
  for (const Point& q : queries) {
    before.Record(index.KNearest(q, options, &ctx));
  }
  const uint64_t evals_before = index.distance_evaluations() - evals0;

  const size_t reclaimed = index.Compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(index.ArenaSlots(), slots_before - reclaimed);
  EXPECT_EQ(index.Fragmentation(), 0.0);
  EXPECT_EQ(index.compactions(), 1u);
  EXPECT_EQ(index.size(), live.size());

  AnswerSheet after;
  const uint64_t evals1 = index.distance_evaluations();
  for (const Point& q : queries) {
    after.Record(index.KNearest(q, options, &ctx));
  }
  const uint64_t evals_after = index.distance_evaluations() - evals1;

  // Stable renumbering preserves traversal order: same bits, same work.
  ExpectIdentical(after, before, "compact");
  EXPECT_EQ(evals_after, evals_before);

  // A second Compact with nothing to reclaim is a no-op.
  EXPECT_EQ(index.Compact(), 0u);
  EXPECT_EQ(index.compactions(), 1u);

  // The index stays fully updatable after compaction.
  const SegmentEntry extra{999999, 7, Segment{{42, 42}, {43, 43}}};
  ASSERT_TRUE(index.Insert(extra).ok());
  ASSERT_TRUE(index.Remove(extra.handle).ok());
}

TEST(CompactTest, ConcurrentReadersAfterCompactMatchSerial) {
  auto entries = RandomEntries(2500, 71);
  const auto queries = RandomQueries(160, 73);
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  ASSERT_TRUE(index.Build(Span<const SegmentEntry>(entries)).ok());
  for (size_t i = 0; i < entries.size(); i += 3) {
    ASSERT_TRUE(index.Remove(entries[i].handle).ok());
  }
  ASSERT_GT(index.Compact(), 0u);

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
    ExpectIdentical(concurrent[t], serial[t], "post-compact");
  }
}

}  // namespace
}  // namespace frt
