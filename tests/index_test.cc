// Tests for src/index: a property test of the flat slot table against
// std::unordered_map, structural unit tests of the hierarchical grid, and a
// parameterized property suite asserting that every search strategy (UG,
// HGt, HGb, HG+) returns the linear scan's (handle, dist) at every rank,
// under both grouping modes, with filters, and across dynamic updates —
// including a randomized interleaved-update property test with reused
// SearchContexts (the exactness guard for the arena/epoch layout), segments
// that leave the grid region, builds of one segment set in different
// orders, one index Reset across many trajectory-sized sets, and a UG
// search with fewer eligible trajectories than k that must terminate.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "geo/morton.h"
#include "index/hierarchical_grid_index.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {
namespace {

constexpr double kRegionSize = 10000.0;

GridSpec TestGrid() {
  return GridSpec(BBox::Of({0, 0}, {kRegionSize, kRegionSize}), 10);
}

SegmentEntry RandomSegment(SegmentHandle handle, TrajId traj, Rng& rng,
                           double max_len = 600.0) {
  const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
  const Point b{a.x + rng.Uniform(-max_len, max_len),
                a.y + rng.Uniform(-max_len, max_len)};
  return SegmentEntry{
      handle, traj,
      Segment{a, {std::clamp(b.x, 0.0, kRegionSize),
                  std::clamp(b.y, 0.0, kRegionSize)}}};
}

/// Every rank must hold the same segment at the same distance, bit for
/// bit: ties break by (dist², handle), so the result is a pure function of
/// the segment set and all strategies share one distance kernel.
/// `got` and `want` must come from different SearchContexts.
void ExpectSameResults(Span<const Neighbor> got, Span<const Neighbor> want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].entry.handle, want[i].entry.handle)
        << label << " at rank " << i;
    ASSERT_EQ(got[i].dist, want[i].dist) << label << " at rank " << i;
  }
}

// ---------------- flat slot table ----------------

/// `count` distinct keys whose probe run starts at slot `home` of a table
/// with `capacity` slots.
std::vector<uint64_t> KeysHomedAt(size_t home, size_t capacity, size_t count,
                                  uint64_t start) {
  std::vector<uint64_t> keys;
  for (uint64_t k = start; keys.size() < count; ++k) {
    if ((FlatSlotTable::Hash(k) & (capacity - 1)) == home) keys.push_back(k);
  }
  return keys;
}

void ExpectSameContents(const FlatSlotTable& table,
                        const std::unordered_map<uint64_t, uint32_t>& want,
                        const std::vector<uint64_t>& universe) {
  ASSERT_EQ(table.size(), want.size());
  for (const uint64_t k : universe) {
    const auto it = want.find(k);
    ASSERT_EQ(table.Find(k),
              it == want.end() ? FlatSlotTable::kNone : it->second)
        << "key " << k;
  }
}

TEST(FlatSlotTableTest, MatchesUnorderedMapUnderRandomChurn) {
  Rng rng(2024);
  // Small integers (the local stage's handles), global-edit style
  // (slot << 32 | node) handles, both extreme keys, and clusters that
  // share a home slot at the first few capacities (forced collisions, some
  // homed on the last slot so their runs wrap around the end).
  std::vector<uint64_t> universe = {0, 1, ~uint64_t{0}, ~uint64_t{0} - 1};
  for (uint64_t i = 0; i < 120; ++i) universe.push_back(i + 2);
  for (uint64_t i = 0; i < 60; ++i) universe.push_back((i % 7) << 32 | i);
  for (const size_t capacity : {16u, 32u, 64u, 128u}) {
    for (const uint64_t k :
         KeysHomedAt(capacity - 1, capacity, 12, capacity * 1000)) {
      universe.push_back(k);
    }
    for (const uint64_t k : KeysHomedAt(3, capacity, 8, capacity * 5000)) {
      universe.push_back(k);
    }
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());

  FlatSlotTable table;
  std::unordered_map<uint64_t, uint32_t> want;
  size_t grown_capacity = 0;
  for (int step = 0; step < 40000; ++step) {
    const uint64_t key = universe[rng.UniformInt(uint64_t{universe.size()})];
    const uint64_t op = rng.UniformInt(uint64_t{100});
    if (op < 45) {
      const auto value = static_cast<uint32_t>(rng.UniformInt(uint64_t{1000}));
      const bool inserted = want.emplace(key, value).second;
      ASSERT_EQ(table.Insert(key, value), inserted) << "step " << step;
    } else if (op < 85) {
      const auto it = want.find(key);
      const uint32_t expect =
          it == want.end() ? FlatSlotTable::kNone : it->second;
      if (it != want.end()) want.erase(it);
      ASSERT_EQ(table.Erase(key), expect) << "step " << step;
    } else if (op < 99) {
      const auto it = want.find(key);
      ASSERT_EQ(table.Find(key),
                it == want.end() ? FlatSlotTable::kNone : it->second);
    } else if (rng.UniformInt(uint64_t{20}) == 0) {
      // clear() keeps the capacity, and the table is fully usable after.
      const size_t capacity = table.capacity();
      table.clear();
      want.clear();
      ASSERT_EQ(table.capacity(), capacity);
    }
    if (step % 997 == 0) {
      ExpectSameContents(table, want, universe);
      if (::testing::Test::HasFatalFailure()) return;
    }
    grown_capacity = std::max(grown_capacity, table.capacity());
  }
  ExpectSameContents(table, want, universe);
  // The churn grew the table past its first capacity at least once.
  EXPECT_GT(grown_capacity, 16u);
}

TEST(FlatSlotTableTest, ProbeRunWrappingTheEndSurvivesErase) {
  // Ten keys homed on slot 15 of a 16-slot table (ten fit at a 2/3 load)
  // occupy slots 15, 0, 1, ... 8; erasing from the front, the middle and
  // the back must shift the rest back without losing any of them.
  const std::vector<uint64_t> keys = KeysHomedAt(15, 16, 10, 1);
  FlatSlotTable table;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(table.Insert(keys[i], static_cast<uint32_t>(i)));
  }
  ASSERT_EQ(table.capacity(), 16u);
  std::unordered_map<uint64_t, uint32_t> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    want[keys[i]] = static_cast<uint32_t>(i);
  }
  for (const size_t victim : {0u, 5u, 9u, 1u}) {
    ASSERT_EQ(table.Erase(keys[victim]), victim);
    want.erase(keys[victim]);
    ExpectSameContents(table, want, keys);
    ASSERT_EQ(table.Erase(keys[victim]), FlatSlotTable::kNone);
  }
  // Re-inserting fills the holes again; the capacity never moved.
  for (const uint32_t victim : {9u, 0u}) {
    ASSERT_TRUE(table.Insert(keys[victim], 100 + victim));
    want[keys[victim]] = 100 + victim;
  }
  ExpectSameContents(table, want, keys);
  EXPECT_EQ(table.capacity(), 16u);
}

TEST(FlatSlotTableTest, ClearKeepsCapacityAndEveryKeyIsStorable) {
  FlatSlotTable table;
  table.Reserve(1000);
  const size_t capacity = table.capacity();
  ASSERT_GE(capacity * 2, 3000u);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(table.Insert(uint64_t{i} * 0x9e3779b97f4a7c15ull, i));
    }
    ASSERT_EQ(table.size(), 1000u);
    ASSERT_EQ(table.Find(uint64_t{999} * 0x9e3779b97f4a7c15ull), 999u);
    table.clear();
    ASSERT_TRUE(table.empty());
    ASSERT_EQ(table.Find(uint64_t{999} * 0x9e3779b97f4a7c15ull),
              FlatSlotTable::kNone);
    ASSERT_EQ(table.capacity(), capacity);
  }
  // Emptiness is marked by the value, so no key is reserved.
  for (const uint64_t key : {uint64_t{0}, ~uint64_t{0}}) {
    EXPECT_EQ(table.Find(key), FlatSlotTable::kNone);
    EXPECT_TRUE(table.Insert(key, 7));
    EXPECT_FALSE(table.Insert(key, 8));
    EXPECT_EQ(table.Find(key), 7u);
    EXPECT_EQ(table.Erase(key), 7u);
    EXPECT_EQ(table.Find(key), FlatSlotTable::kNone);
  }
}

// ---------------- structural tests (hierarchical grid) ----------------

TEST(HierarchicalGridTest, BestFitAssignment) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  // A tiny segment lands in a deep cell; a region-spanning one at the root.
  SegmentEntry tiny{1, 0, Segment{{10, 10}, {12, 12}}};
  SegmentEntry wide{2, 0, Segment{{100, 100}, {9900, 9900}}};
  ASSERT_TRUE(index.Insert(tiny).ok());
  ASSERT_TRUE(index.Insert(wide).ok());
  const CellCoord tiny_cell = index.BestFit(tiny.geom);
  EXPECT_EQ(tiny_cell.level, 9);
  EXPECT_EQ(index.BestFit(wide.geom).level, 0);
  const auto tiny_segs = index.CellSegments(tiny_cell);
  ASSERT_EQ(tiny_segs.size(), 1u);
  EXPECT_EQ(tiny_segs[0].handle, 1u);
  const auto root_segs = index.CellSegments(CellCoord{0, 0, 0});
  ASSERT_EQ(root_segs.size(), 1u);
  EXPECT_EQ(root_segs[0].handle, 2u);
  EXPECT_TRUE(index.CellSegments(CellCoord{5, 3, 3}).empty());
}

TEST(HierarchicalGridTest, ParentLinksSkipEmptyLevels) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  SegmentEntry deep{1, 0, Segment{{10, 10}, {12, 12}}};
  ASSERT_TRUE(index.Insert(deep).ok());
  const CellCoord cell = index.BestFit(deep.geom);
  // With only root and this cell materialized, the parent is the root.
  EXPECT_EQ(index.CellParent(cell), (CellCoord{0, 0, 0}));
  EXPECT_EQ(index.NumCells(), 2u);
  // Insert a mid-level ancestor: the deep cell reparents beneath it.
  SegmentEntry mid{2, 0, Segment{{5, 5}, {1200, 1200}}};
  ASSERT_TRUE(index.Insert(mid).ok());
  const CellCoord mid_cell = index.BestFit(mid.geom);
  ASSERT_GT(mid_cell.level, 0);
  ASSERT_LT(mid_cell.level, cell.level);
  EXPECT_EQ(index.CellParent(cell), mid_cell);
  EXPECT_EQ(index.CellParent(mid_cell), (CellCoord{0, 0, 0}));
}

TEST(HierarchicalGridTest, RemoveSplicesEmptyCells) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  SegmentEntry deep{1, 0, Segment{{10, 10}, {12, 12}}};
  SegmentEntry mid{2, 0, Segment{{5, 5}, {1200, 1200}}};
  ASSERT_TRUE(index.Insert(deep).ok());
  ASSERT_TRUE(index.Insert(mid).ok());
  ASSERT_EQ(index.NumCells(), 3u);
  // Removing the mid segment splices its cell; deep reattaches to root.
  ASSERT_TRUE(index.Remove(2).ok());
  EXPECT_EQ(index.NumCells(), 2u);
  EXPECT_EQ(index.CellParent(index.BestFit(deep.geom)),
            (CellCoord{0, 0, 0}));
  ASSERT_TRUE(index.Remove(1).ok());
  EXPECT_EQ(index.NumCells(), 1u);  // root only
  EXPECT_EQ(index.size(), 0u);
}

TEST(HierarchicalGridTest, DuplicateHandleRejected) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  SegmentEntry e{1, 0, Segment{{10, 10}, {12, 12}}};
  ASSERT_TRUE(index.Insert(e).ok());
  EXPECT_EQ(index.Insert(e).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(index.Remove(99).IsNotFound());
}

TEST(HierarchicalGridTest, DuplicateHandleCreatesNoCell) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  const SegmentEntry e{1, 0, Segment{{10, 10}, {12, 12}}};
  ASSERT_TRUE(index.Insert(e).ok());
  const size_t cells = index.NumCells();
  SearchOptions options;
  options.k = 2;
  SearchContext ctx;
  const Point q{5000, 5000};
  const auto hits = index.KNearest(q, options, &ctx);
  const std::vector<Neighbor> before(hits.begin(), hits.end());
  // Same handle, geometry whose best-fit cell is not materialized.
  const SegmentEntry dup{1, 3, Segment{{7000, 7000}, {7010, 7010}}};
  EXPECT_EQ(index.Insert(dup).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Build(Span<const SegmentEntry>(&dup, 1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(index.NumCells(), cells);
  EXPECT_TRUE(index.CellSegments(index.BestFit(dup.geom)).empty());
  EXPECT_EQ(index.size(), 1u);
  ExpectSameResults(index.KNearest(q, options, &ctx), before, "duplicate");
}

TEST(HierarchicalGridTest, ExtremeHandlesAreOrdinaryKeys) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  const SegmentHandle max = std::numeric_limits<SegmentHandle>::max();
  const SegmentEntry high{max, 0, Segment{{10, 10}, {12, 12}}};
  const SegmentEntry low{0, 1, Segment{{20, 20}, {22, 22}}};
  ASSERT_TRUE(index.Insert(high).ok());
  ASSERT_TRUE(index.Insert(low).ok());
  EXPECT_EQ(index.Insert(high).code(), StatusCode::kAlreadyExists);
  SearchOptions options;
  options.k = 2;
  SearchContext ctx;
  const auto hits = index.KNearest({0, 0}, options, &ctx);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].entry.handle, max);
  EXPECT_EQ(hits[1].entry.handle, 0u);
  ASSERT_TRUE(index.Remove(max).ok());
  EXPECT_TRUE(index.Remove(max).IsNotFound());
  EXPECT_EQ(index.size(), 1u);
}

TEST(HierarchicalGridTest, EmptyIndexReturnsNothing) {
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  SearchOptions options;
  options.k = 3;
  SearchContext ctx;
  EXPECT_TRUE(index.KNearest({100, 100}, options, &ctx).empty());
}

TEST(HierarchicalGridTest, PruningReducesDistanceEvaluations) {
  Rng rng(17);
  HierarchicalGridIndex hg(TestGrid(), SearchStrategy::kBottomUpDown);
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  for (SegmentHandle h = 0; h < 5000; ++h) {
    const SegmentEntry e = RandomSegment(h, h % 100, rng);
    ASSERT_TRUE(hg.Insert(e).ok());
    ASSERT_TRUE(linear->Insert(e).ok());
  }
  SearchOptions options;
  options.k = 5;
  SearchContext ctx;
  for (int i = 0; i < 20; ++i) {
    const Point q{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    (void)hg.KNearest(q, options, &ctx);
    (void)linear->KNearest(q, options, &ctx);
  }
  // The hierarchical index must evaluate far fewer exact distances.
  EXPECT_LT(hg.distance_evaluations(),
            linear->distance_evaluations() / 5);
}

// ---------------- edge cells (segments leaving the region) ----------------
//
// GridSpec::CellAt clamps an endpoint outside the region into an edge
// cell, so a segment can be registered in a cell whose CellBox does not
// contain it. Child pruning bounds such cells with GridSpec::CellBound
// (outer sides open), so no strategy may miss the segment.

const SearchStrategy kAllStrategies[] = {
    SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
    SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
    SearchStrategy::kBottomUpDown};

TEST(EdgeCellBoundTest, SegmentLeavingTheRegionIsFound) {
  // `leaving` sits in the finest cell at the right edge around y = 5000,
  // but runs 2 km past the region. From q, its CellBox is 1414 m away
  // while `inside` is 1104 m away, so a closed-box bound prunes the cell
  // that holds the true nearest segment (1005 m).
  const SegmentEntry leaving{1, 1, Segment{{9990, 5000}, {12000, 5010}}};
  const SegmentEntry inside{2, 2, Segment{{9900, 3900}, {9901, 3901}}};
  const Point q{11000, 4000};
  SearchContext ctx;
  for (const SearchStrategy s : kAllStrategies) {
    auto index = MakeSegmentIndex(s, TestGrid());
    ASSERT_TRUE(index->Insert(leaving).ok());
    ASSERT_TRUE(index->Insert(inside).ok());
    for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
      SearchOptions options;
      options.k = 1;
      options.group_by = mode;
      const auto hits = index->KNearest(q, options, &ctx);
      ASSERT_EQ(hits.size(), 1u);
      EXPECT_EQ(hits[0].entry.handle, leaving.handle)
          << SearchStrategyName(s);
      EXPECT_EQ(hits[0].dist, PointSegmentDistance(q, leaving.geom))
          << SearchStrategyName(s);
    }
  }
}

TEST(EdgeCellBoundTest, RandomSegmentsLeavingTheRegionMatchLinear) {
  // Unclamped segments near the border and queries on both sides of it.
  Rng rng(909);
  std::vector<std::unique_ptr<SegmentIndex>> indexes;
  for (const SearchStrategy s : kAllStrategies) {
    indexes.push_back(MakeSegmentIndex(s, TestGrid()));
  }
  for (SegmentHandle h = 0; h < 600; ++h) {
    const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const Point b{a.x + rng.Uniform(-3000, 3000),
                  a.y + rng.Uniform(-3000, 3000)};
    const SegmentEntry e{h, static_cast<TrajId>(h % 40), Segment{a, b}};
    for (auto& index : indexes) ASSERT_TRUE(index->Insert(e).ok());
  }
  SearchContext linear_ctx;
  SearchContext ctx;
  for (int trial = 0; trial < 100; ++trial) {
    const Point q{rng.Uniform(-3000, kRegionSize + 3000),
                  rng.Uniform(-3000, kRegionSize + 3000)};
    for (const size_t k : {1u, 3u}) {
      for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
        SearchOptions options;
        options.k = k;
        options.group_by = mode;
        const auto want = indexes[0]->KNearest(q, options, &linear_ctx);
        for (size_t s = 1; s < indexes.size(); ++s) {
          ExpectSameResults(indexes[s]->KNearest(q, options, &ctx), want,
                            std::string(SearchStrategyName(kAllStrategies[s])) +
                                " trial " + std::to_string(trial));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// ---------------- parameterized equivalence suite ----------------

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(StrategyEquivalenceTest, MatchesLinearOnRandomData) {
  Rng rng(101);
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  for (SegmentHandle h = 0; h < 2000; ++h) {
    const SegmentEntry e = RandomSegment(h, h % 50, rng);
    ASSERT_TRUE(linear->Insert(e).ok());
    ASSERT_TRUE(index->Insert(e).ok());
  }
  SearchContext ctx;
  SearchContext linear_ctx;
  for (const size_t k : {1u, 3u, 10u, 40u}) {
    for (int trial = 0; trial < 25; ++trial) {
      const Point q{rng.Uniform(0, kRegionSize),
                    rng.Uniform(0, kRegionSize)};
      SearchOptions options;
      options.k = k;
      ExpectSameResults(index->KNearest(q, options, &ctx),
                        linear->KNearest(q, options, &linear_ctx),
                        std::string(SearchStrategyName(GetParam())) +
                            " k=" + std::to_string(k));
    }
  }
}

TEST_P(StrategyEquivalenceTest, TrajectoryGroupingMatchesLinear) {
  Rng rng(202);
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  for (SegmentHandle h = 0; h < 1500; ++h) {
    const SegmentEntry e = RandomSegment(h, h % 30, rng);
    ASSERT_TRUE(linear->Insert(e).ok());
    ASSERT_TRUE(index->Insert(e).ok());
  }
  SearchContext ctx;
  SearchContext linear_ctx;
  for (const size_t k : {1u, 5u, 20u}) {
    for (int trial = 0; trial < 15; ++trial) {
      const Point q{rng.Uniform(0, kRegionSize),
                    rng.Uniform(0, kRegionSize)};
      SearchOptions options;
      options.k = k;
      options.group_by = GroupBy::kTrajectory;
      const auto got = index->KNearest(q, options, &ctx);
      ExpectSameResults(got, linear->KNearest(q, options, &linear_ctx),
                        "traj mode");
      // Distinct trajectories only.
      std::unordered_set<TrajId> trajs;
      for (const auto& n : got) {
        ASSERT_TRUE(trajs.insert(n.entry.traj).second);
      }
    }
  }
}

TEST_P(StrategyEquivalenceTest, FilterExcludesIneligibleSegments) {
  Rng rng(303);
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  for (SegmentHandle h = 0; h < 800; ++h) {
    const SegmentEntry e = RandomSegment(h, h % 10, rng);
    ASSERT_TRUE(index->Insert(e).ok());
    ASSERT_TRUE(linear->Insert(e).ok());
  }
  const auto not_traj3 = [](const SegmentEntry& e) { return e.traj != 3; };
  SearchOptions options;
  options.k = 10;
  options.filter = not_traj3;
  SearchContext ctx;
  SearchContext linear_ctx;
  for (int trial = 0; trial < 10; ++trial) {
    const Point q{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const auto got = index->KNearest(q, options, &ctx);
    ExpectSameResults(got, linear->KNearest(q, options, &linear_ctx),
                      "filtered");
    for (const auto& n : got) ASSERT_NE(n.entry.traj, 3);
  }
}

TEST_P(StrategyEquivalenceTest, StaysCorrectAcrossUpdates) {
  Rng rng(404);
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  std::vector<SegmentHandle> live;
  SegmentHandle next = 0;
  SearchContext ctx;
  SearchContext linear_ctx;
  for (int round = 0; round < 6; ++round) {
    // Insert a batch.
    for (int i = 0; i < 300; ++i) {
      const SegmentEntry e = RandomSegment(next, next % 20, rng);
      ASSERT_TRUE(linear->Insert(e).ok());
      ASSERT_TRUE(index->Insert(e).ok());
      live.push_back(next);
      ++next;
    }
    // Remove a random half of the live set.
    for (size_t i = 0; i < live.size() / 2; ++i) {
      const size_t pick = rng.UniformInt(uint64_t{live.size()});
      ASSERT_TRUE(linear->Remove(live[pick]).ok());
      ASSERT_TRUE(index->Remove(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(index->size(), linear->size());
    // Verify queries.
    SearchOptions options;
    options.k = 7;
    for (int trial = 0; trial < 8; ++trial) {
      const Point q{rng.Uniform(0, kRegionSize),
                    rng.Uniform(0, kRegionSize)};
      ExpectSameResults(index->KNearest(q, options, &ctx),
                        linear->KNearest(q, options, &linear_ctx),
                        "after updates round " + std::to_string(round));
    }
  }
}

TEST_P(StrategyEquivalenceTest, KLargerThanPopulationReturnsAll) {
  Rng rng(505);
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  for (SegmentHandle h = 0; h < 12; ++h) {
    ASSERT_TRUE(index->Insert(RandomSegment(h, h, rng)).ok());
  }
  SearchOptions options;
  options.k = 100;
  SearchContext ctx;
  EXPECT_EQ(index->KNearest({500, 500}, options, &ctx).size(), 12u);
}

TEST_P(StrategyEquivalenceTest, ResultsSortedAscending) {
  Rng rng(606);
  auto index = MakeSegmentIndex(GetParam(), TestGrid());
  for (SegmentHandle h = 0; h < 500; ++h) {
    ASSERT_TRUE(index->Insert(RandomSegment(h, h % 9, rng)).ok());
  }
  SearchOptions options;
  options.k = 20;
  SearchContext ctx;
  const auto result = index->KNearest({5000, 5000}, options, &ctx);
  for (size_t i = 0; i + 1 < result.size(); ++i) {
    ASSERT_LE(result[i].dist, result[i + 1].dist + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Values(SearchStrategy::kUniformGrid,
                      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
                      SearchStrategy::kBottomUpDown),
    [](const ::testing::TestParamInfo<SearchStrategy>& info) {
      std::string name(SearchStrategyName(info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

// ---------------- randomized interleaved-update property test ------------
//
// The exactness guard for the arena/epoch-stamp layout: on randomized
// segment sets with interleaved Insert/Remove, every strategy must return
// results identical to kLinear — under both GroupBy modes, with and
// without a filter, and with each index's SearchContext reused across all
// queries (so stale scratch state from a previous query, mode, or k would
// be caught immediately).
TEST(StrategyEquivalencePropertyTest, InterleavedUpdatesAllModesReusedCtx) {
  Rng rng(7777);
  std::vector<std::unique_ptr<SegmentIndex>> indexes;
  // One long-lived context per index, shared by every query below.
  std::vector<std::unique_ptr<SearchContext>> contexts;
  for (const SearchStrategy s : kAllStrategies) {
    indexes.push_back(MakeSegmentIndex(s, TestGrid()));
    contexts.push_back(std::make_unique<SearchContext>());
  }
  SegmentIndex& linear = *indexes[0];
  SearchContext& linear_ctx = *contexts[0];

  std::vector<SegmentHandle> live;
  SegmentHandle next = 0;
  for (int round = 0; round < 10; ++round) {
    // Interleave: a burst of inserts, then a random batch of removals.
    const size_t inserts = 50 + rng.UniformInt(uint64_t{200});
    for (size_t i = 0; i < inserts; ++i) {
      const SegmentEntry e = RandomSegment(next, next % 23, rng);
      for (auto& index : indexes) {
        ASSERT_TRUE(index->Insert(e).ok());
      }
      live.push_back(next);
      ++next;
    }
    const size_t removals = rng.UniformInt(uint64_t{live.size() / 2 + 1});
    for (size_t i = 0; i < removals; ++i) {
      const size_t pick = rng.UniformInt(uint64_t{live.size()});
      for (auto& index : indexes) {
        ASSERT_TRUE(index->Remove(live[pick]).ok());
      }
      live[pick] = live.back();
      live.pop_back();
    }
    for (auto& index : indexes) ASSERT_EQ(index->size(), live.size());

    const TrajId banned = static_cast<TrajId>(round % 23);
    const auto not_banned = [banned](const SegmentEntry& e) {
      return e.traj != banned;
    };
    for (const size_t k : {1u, 4u, 17u}) {
      for (const GroupBy mode :
           {GroupBy::kSegment, GroupBy::kTrajectory}) {
        for (const bool filtered : {false, true}) {
          const Point q{rng.Uniform(0, kRegionSize),
                        rng.Uniform(0, kRegionSize)};
          SearchOptions options;
          options.k = k;
          options.group_by = mode;
          if (filtered) options.filter = not_banned;
          const auto want = linear.KNearest(q, options, &linear_ctx);
          for (size_t s = 1; s < indexes.size(); ++s) {
            const auto got =
                indexes[s]->KNearest(q, options, contexts[s].get());
            const std::string label =
                std::string(SearchStrategyName(kAllStrategies[s])) + " round " +
                std::to_string(round) + " k=" + std::to_string(k) +
                (mode == GroupBy::kTrajectory ? " traj" : " seg") +
                (filtered ? " filtered" : "");
            ExpectSameResults(got, want, label);
            if (::testing::Test::HasFatalFailure()) return;
            for (const Neighbor& n : got) {
              if (filtered) {
                ASSERT_NE(n.entry.traj, banned) << label;
              }
            }
            if (mode == GroupBy::kTrajectory) {
              std::unordered_set<TrajId> trajs;
              for (const auto& n : got) {
                ASSERT_TRUE(trajs.insert(n.entry.traj).second) << label;
              }
            }
          }
        }
      }
    }
  }
}

// Bulk Build must be equivalent to element-wise Insert (same contents,
// same query results) and reject duplicate handles.
TEST(StrategyEquivalencePropertyTest, BulkBuildMatchesInserts) {
  Rng rng(8888);
  std::vector<SegmentEntry> entries;
  for (SegmentHandle h = 0; h < 1200; ++h) {
    entries.push_back(RandomSegment(h, h % 40, rng));
  }
  for (const SearchStrategy s : kAllStrategies) {
    auto bulk = MakeSegmentIndex(s, TestGrid());
    ASSERT_TRUE(bulk->Build(entries).ok());
    auto incremental = MakeSegmentIndex(s, TestGrid());
    for (const auto& e : entries) ASSERT_TRUE(incremental->Insert(e).ok());
    ASSERT_EQ(bulk->size(), incremental->size());
    SearchOptions options;
    options.k = 12;
    SearchContext bulk_ctx;
    SearchContext incremental_ctx;
    for (int trial = 0; trial < 10; ++trial) {
      const Point q{rng.Uniform(0, kRegionSize),
                    rng.Uniform(0, kRegionSize)};
      ExpectSameResults(bulk->KNearest(q, options, &bulk_ctx),
                        incremental->KNearest(q, options, &incremental_ctx),
                        std::string(SearchStrategyName(s)) + " bulk");
    }
    EXPECT_EQ(bulk->Build(Span<const SegmentEntry>(entries.data(), 1))
                  .code(),
              StatusCode::kAlreadyExists);
  }
}

// The result of a search is a pure function of the segment set: the same
// entries bulk-built in input order, reversed and Morton order return
// identical (handle, dist) lists under every strategy. The fixture is
// polylines on a 100 m lattice over a 3 km square, queried at lattice
// points, so consecutive segments share vertices and most queries have
// exactly tied candidates.
TEST(StrategyEquivalencePropertyTest, ResultsIndependentOfBuildOrder) {
  Rng rng(4242);
  std::vector<SegmentEntry> entries;
  for (TrajId t = 0; t < 60; ++t) {
    Point p{100.0 * static_cast<double>(rng.UniformInt(uint64_t{30})),
            100.0 * static_cast<double>(rng.UniformInt(uint64_t{30}))};
    for (int i = 0; i < 25; ++i) {
      const Point next{
          std::clamp(p.x + 100.0 * (static_cast<double>(
                                        rng.UniformInt(uint64_t{5})) - 2.0),
                     0.0, kRegionSize),
          std::clamp(p.y + 100.0 * (static_cast<double>(
                                        rng.UniformInt(uint64_t{5})) - 2.0),
                     0.0, kRegionSize)};
      entries.push_back(SegmentEntry{entries.size(), t, Segment{p, next}});
      p = next;
    }
  }
  std::vector<SegmentEntry> reversed(entries.rbegin(), entries.rend());
  std::vector<SegmentEntry> morton = entries;
  const BBox region = TestGrid().region();
  std::stable_sort(morton.begin(), morton.end(),
                   [&region](const SegmentEntry& a, const SegmentEntry& b) {
                     return MortonKey(a.geom, region) <
                            MortonKey(b.geom, region);
                   });
  const std::vector<SegmentEntry>* orders[] = {&entries, &reversed, &morton};

  std::vector<std::unique_ptr<SegmentIndex>> indexes;
  for (const SearchStrategy s : kAllStrategies) {
    for (const auto* order : orders) {
      indexes.push_back(MakeSegmentIndex(s, TestGrid()));
      ASSERT_TRUE(indexes.back()->Build(*order).ok());
    }
  }
  const auto odd_traj = [](const SegmentEntry& e) { return e.traj % 2 == 1; };
  SearchContext ref_ctx;
  SearchContext ctx;
  for (int trial = 0; trial < 100; ++trial) {
    const Point q{100.0 * static_cast<double>(rng.UniformInt(uint64_t{30})),
                  100.0 * static_cast<double>(rng.UniformInt(uint64_t{30}))};
    for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
      for (const bool filtered : {false, true}) {
        SearchOptions options;
        options.k = 6;
        options.group_by = mode;
        if (filtered) options.filter = odd_traj;
        const auto want = indexes[0]->KNearest(q, options, &ref_ctx);
        for (size_t i = 1; i < indexes.size(); ++i) {
          ExpectSameResults(
              indexes[i]->KNearest(q, options, &ctx), want,
              std::string(SearchStrategyName(kAllStrategies[i / 3])) +
                  " order " + std::to_string(i % 3) + " trial " +
                  std::to_string(trial));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The local stage reuses one index for every trajectory of a call: Reset
// re-targets it at the trajectory's own grid. Over 60 trajectory-sized
// segment sets with different grids, with the modifier's Remove/Insert
// churn between searches, a reused index must return what a fresh index
// per set returns — (handle, dist) at every rank — and count the same
// distance evaluations.
TEST(IndexResetTest, ReusedIndexMatchesFreshIndexPerSet) {
  for (const SearchStrategy s : kAllStrategies) {
    SCOPED_TRACE(std::string(SearchStrategyName(s)));
    Rng rng(5150);
    auto reused = MakeSegmentIndex(s, TestGrid());
    SearchContext reused_ctx;
    SearchContext fresh_ctx;
    for (int set = 0; set < 60; ++set) {
      // A polyline of 20-160 points inside a box of 300 m to 6 km.
      const double extent = rng.Uniform(300, 6000);
      const Point origin{rng.Uniform(0, kRegionSize - extent),
                         rng.Uniform(0, kRegionSize - extent)};
      const size_t points = 20 + rng.UniformInt(uint64_t{141});
      std::vector<SegmentEntry> entries;
      Point p{origin.x + rng.Uniform(0, extent),
              origin.y + rng.Uniform(0, extent)};
      BBox region = BBox::Of(p, p);
      for (size_t i = 1; i < points; ++i) {
        const Point next{
            std::clamp(p.x + rng.Uniform(-extent / 32, extent / 32), origin.x,
                       origin.x + extent),
            std::clamp(p.y + rng.Uniform(-extent / 32, extent / 32), origin.y,
                       origin.y + extent)};
        entries.push_back(SegmentEntry{i - 1, static_cast<TrajId>(i % 8),
                                       Segment{p, next}});
        region.Extend(next);
        p = next;
      }
      region.min_x -= 50;
      region.min_y -= 50;
      region.max_x += 50;
      region.max_y += 50;
      // Levels vary too (16x16 .. 256x256 finest), so Reset re-targets
      // UG's level and HG's depth as well as the region.
      const GridSpec grid(region, 5 + set % 5);

      reused->Reset(grid);
      ASSERT_EQ(reused->size(), 0u);
      ASSERT_EQ(reused->distance_evaluations(), 0u);
      ASSERT_TRUE(reused->Build(entries).ok());
      auto fresh = MakeSegmentIndex(s, grid);
      ASSERT_TRUE(fresh->Build(entries).ok());

      std::vector<SegmentEntry> live = entries;
      SegmentHandle next_handle = entries.size();
      for (int round = 0; round < 6; ++round) {
        // Insertion churn (InsertPointSync): split a segment at q.
        for (int edit = 0; edit < 3; ++edit) {
          const size_t pick = rng.UniformInt(uint64_t{live.size()});
          const SegmentEntry old = live[pick];
          // Insertion sites are nearest segments, so q lies near `old`.
          const Point q{(old.geom.a.x + old.geom.b.x) / 2 +
                            rng.Uniform(-extent / 64, extent / 64),
                        (old.geom.a.y + old.geom.b.y) / 2 +
                            rng.Uniform(-extent / 64, extent / 64)};
          const SegmentEntry left{old.handle, old.traj, Segment{old.geom.a, q}};
          const SegmentEntry right{next_handle++, old.traj,
                                   Segment{q, old.geom.b}};
          for (SegmentIndex* index : {reused.get(), fresh.get()}) {
            ASSERT_TRUE(index->Remove(old.handle).ok());
            ASSERT_TRUE(index->Insert(left).ok());
            ASSERT_TRUE(index->Insert(right).ok());
          }
          live[pick] = left;
          live.push_back(right);
        }
        // Deletion churn (DeleteNodeSync): drop a segment.
        if (live.size() > 2) {
          const size_t pick = rng.UniformInt(uint64_t{live.size()});
          for (SegmentIndex* index : {reused.get(), fresh.get()}) {
            ASSERT_TRUE(index->Remove(live[pick].handle).ok());
          }
          live[pick] = live.back();
          live.pop_back();
        }
        for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
          SearchOptions options;
          options.k = 1 + rng.UniformInt(uint64_t{6});
          options.group_by = mode;
          // Like the modifier's representative points: near the polyline.
          const Point& v =
              live[rng.UniformInt(uint64_t{live.size()})].geom.a;
          const Point q{v.x + rng.Uniform(-extent / 20, extent / 20),
                        v.y + rng.Uniform(-extent / 20, extent / 20)};
          ExpectSameResults(reused->KNearest(q, options, &reused_ctx),
                            fresh->KNearest(q, options, &fresh_ctx),
                            "set " + std::to_string(set) + " round " +
                                std::to_string(round));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      ASSERT_EQ(reused->size(), fresh->size());
      ASSERT_EQ(reused->distance_evaluations(), fresh->distance_evaluations())
          << "set " << set;
    }
  }
}

TEST(UniformGridTest, FewerEligibleTrajectoriesThanKTerminates) {
  // Trajectory mode with k above the trajectory count: the collector never
  // fills, so only running out of grid ends the ring walk. Each query must return every trajectory, as the linear scan
  // does. The segments span the region, so each query still walks most of
  // the 1024x1024 grid once: the 60 queries take about 0.5 s in Release
  // and 3 s under ASan at -O0. A walk that rescans every (2r+1)^2 square
  // out to radius 1024 took 22 s in Release.
  Rng rng(808);
  auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  auto grid = MakeSegmentIndex(SearchStrategy::kUniformGrid, TestGrid());
  for (SegmentHandle h = 0; h < 40; ++h) {
    const SegmentEntry e = RandomSegment(h, h % 5, rng);
    ASSERT_TRUE(linear->Insert(e).ok());
    ASSERT_TRUE(grid->Insert(e).ok());
  }
  SearchOptions options;
  options.k = 6;
  options.group_by = GroupBy::kTrajectory;
  SearchContext ctx;
  SearchContext linear_ctx;
  Stopwatch watch;
  for (int trial = 0; trial < 60; ++trial) {
    const Point q{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const auto got = grid->KNearest(q, options, &ctx);
    ASSERT_EQ(got.size(), 5u) << "trial " << trial;
    ExpectSameResults(got, linear->KNearest(q, options, &linear_ctx),
                      "trial " + std::to_string(trial));
  }
  EXPECT_LT(watch.ElapsedSeconds(), 15.0);
}

TEST(SearchStrategyTest, Names) {
  EXPECT_EQ(SearchStrategyName(SearchStrategy::kLinear), "Linear");
  EXPECT_EQ(SearchStrategyName(SearchStrategy::kUniformGrid), "UG");
  EXPECT_EQ(SearchStrategyName(SearchStrategy::kTopDown), "HGt");
  EXPECT_EQ(SearchStrategyName(SearchStrategy::kBottomUp), "HGb");
  EXPECT_EQ(SearchStrategyName(SearchStrategy::kBottomUpDown), "HG+");
}

TEST(IndexTrajectoryTest, InsertsAllSegments) {
  Trajectory t(5);
  t.Append({100, 100}, 0);
  t.Append({200, 100}, 60);
  t.Append({200, 200}, 120);
  auto index = MakeSegmentIndex(SearchStrategy::kBottomUpDown, TestGrid());
  EXPECT_EQ(IndexTrajectory(t, index.get(), 1000), 2u);
  EXPECT_EQ(index->size(), 2u);
}

}  // namespace
}  // namespace frt
