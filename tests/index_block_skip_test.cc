// Block-skipping exactness suite for the hierarchical grid.
//
// Every segment that crosses a dyadic boundary lives in a coarse cell, and
// every ancestor of a query has MINdist 0, so the grid's cell pruning can
// never skip those cells. SweepCell instead skips whole 8-lane blocks whose
// (conservative) bounding box lies beyond the current K-th distance. These
// tests build a fixture of trajectories zigzagging across the region's
// midlines — hundreds of root residents, consecutive segments sharing a
// vertex so exact ties are common — and assert that skipping changes the
// work but never the answer: results equal the linear scan in both
// grouping modes, with a filter, and after interleaved Remove/Insert calls
// that leave boxes stale; the batched and scalar kernels agree on results
// and on distance_evaluations; and the evaluation count falls strictly
// below what sweeping the root alone would cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/segment_soa.h"
#include "index/hierarchical_grid_index.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {
namespace {

constexpr double kRegionSize = 10000.0;
constexpr double kMid = kRegionSize / 2;

GridSpec TestGrid() {
  return GridSpec(BBox::Of({0, 0}, {kRegionSize, kRegionSize}), 10);
}

/// Trajectories that zigzag across the vertical (even ids) or horizontal
/// (odd ids) midline, so every segment straddles it and lands in the
/// root; consecutive segments share a vertex. Appends to `entries`,
/// numbering handles from entries->size(); returns the vertices.
std::vector<Point> AddStraddlers(size_t trajs, size_t segments_per_traj,
                                 uint64_t seed,
                                 std::vector<SegmentEntry>* entries) {
  Rng rng(seed);
  std::vector<Point> vertices;
  for (size_t t = 0; t < trajs; ++t) {
    const bool vertical = t % 2 == 0;
    double along = rng.Uniform(500.0, 5000.0);
    Point prev{};
    for (size_t i = 0; i <= segments_per_traj; ++i) {
      const double side = (i % 2 == 0 ? -1.0 : 1.0) * rng.Uniform(5.0, 150.0);
      const Point p = vertical ? Point{kMid + side, along}
                               : Point{along, kMid + side};
      along += rng.Uniform(20.0, 120.0);
      if (i > 0) {
        entries->push_back(SegmentEntry{entries->size(),
                                        static_cast<TrajId>(t),
                                        Segment{prev, p}});
      }
      vertices.push_back(p);
      prev = p;
    }
  }
  return vertices;
}

/// Short random segments scattered over the region (deep cells).
void AddBackground(size_t n, uint64_t seed,
                   std::vector<SegmentEntry>* entries) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    const Point b{std::clamp(a.x + rng.Uniform(-80.0, 80.0), 0.0, kRegionSize),
                  std::clamp(a.y + rng.Uniform(-80.0, 80.0), 0.0,
                             kRegionSize)};
    entries->push_back(SegmentEntry{entries->size(),
                                    static_cast<TrajId>(1000 + i % 50),
                                    Segment{a, b}});
  }
}

struct Fixture {
  std::vector<SegmentEntry> entries;
  std::vector<Point> queries;
};

/// Straddlers + background; queries mix uniform points, points near the
/// midlines, and exact shared vertices (ties between neighbours).
Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  const std::vector<Point> vertices =
      AddStraddlers(/*trajs=*/40, /*segments_per_traj=*/30, seed, &f.entries);
  AddBackground(1500, seed + 1, &f.entries);
  Rng rng(seed + 2);
  for (int i = 0; i < 120; ++i) {
    f.queries.push_back(
        {rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)});
    f.queries.push_back({kMid + rng.Uniform(-400.0, 400.0),
                         rng.Uniform(0, kRegionSize)});
    f.queries.push_back(vertices[static_cast<size_t>(
        rng.Uniform(0, static_cast<double>(vertices.size())))]);
  }
  return f;
}

/// A query's distances in rank order. Equal to the linear scan's bit for
/// bit; handles are not compared because which of several exactly tied
/// segments is kept depends on offer order, in the reference too.
std::vector<double> Dists(Span<const Neighbor> hits) {
  std::vector<double> out;
  for (const Neighbor& n : hits) out.push_back(n.dist);
  return out;
}

const SearchStrategy kHgStrategies[] = {SearchStrategy::kTopDown,
                                        SearchStrategy::kBottomUp,
                                        SearchStrategy::kBottomUpDown};

std::string Label(SearchStrategy s, GroupBy mode, bool filtered) {
  return std::string(SearchStrategyName(s)) +
         (mode == GroupBy::kSegment ? "/segment" : "/trajectory") +
         (filtered ? "/filtered" : "");
}

/// Asserts every strategy's answers equal the linear scan's over
/// `queries`, in both grouping modes, with and without a filter.
void ExpectMatchesLinear(const SegmentIndex& linear,
                         const std::vector<const SegmentIndex*>& grids,
                         const std::vector<Point>& queries) {
  const auto even_traj = [](const SegmentEntry& e) {
    return e.traj % 2 == 0;
  };
  SearchContext ref_ctx;
  SearchContext ctx;
  for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
    for (const bool filtered : {false, true}) {
      SearchOptions options;
      options.k = 5;
      options.group_by = mode;
      if (filtered) options.filter = even_traj;
      for (const SegmentIndex* grid : grids) {
        const HierarchicalGridIndex& hg =
            static_cast<const HierarchicalGridIndex&>(*grid);
        const std::string label = Label(hg.strategy(), mode, filtered);
        for (const Point& q : queries) {
          const std::vector<double> want =
              Dists(linear.KNearest(q, options, &ref_ctx));
          ASSERT_EQ(Dists(grid->KNearest(q, options, &ctx)), want)
              << label << " at (" << q.x << ", " << q.y << ")";
        }
      }
    }
  }
}

TEST(BlockSkipTest, FixtureLoadsTheRoot) {
  // Guard on the fixture itself: the point of it is a crowded root.
  const Fixture f = MakeFixture(3);
  HierarchicalGridIndex index(TestGrid(), SearchStrategy::kBottomUpDown);
  ASSERT_TRUE(index.Build(Span<const SegmentEntry>(f.entries)).ok());
  EXPECT_GE(index.CellSegments(CellCoord{0, 0, 0}).size(), 40u * 30u);
}

TEST(BlockSkipTest, MatchesLinearScanInBothModesAndWithFilter) {
  const Fixture f = MakeFixture(5);
  const auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  ASSERT_TRUE(linear->Build(Span<const SegmentEntry>(f.entries)).ok());
  std::vector<std::unique_ptr<SegmentIndex>> owned;
  std::vector<const SegmentIndex*> grids;
  for (const SearchStrategy s : kHgStrategies) {
    owned.push_back(MakeSegmentIndex(s, TestGrid()));
    ASSERT_TRUE(owned.back()->Build(Span<const SegmentEntry>(f.entries)).ok());
    grids.push_back(owned.back().get());
  }
  ExpectMatchesLinear(*linear, grids, f.queries);
}

TEST(BlockSkipTest, StaleBoxesAfterInterleavedRemoveInsertStayExact) {
  // Removals swap the last lane into the hole and never shrink a box, so
  // boxes go stale-large; reinserts reuse the freed lanes. Every round
  // must still match the linear scan.
  Fixture f = MakeFixture(7);
  const auto linear = MakeSegmentIndex(SearchStrategy::kLinear, TestGrid());
  std::vector<std::unique_ptr<SegmentIndex>> owned;
  std::vector<const SegmentIndex*> grids;
  ASSERT_TRUE(linear->Build(Span<const SegmentEntry>(f.entries)).ok());
  for (const SearchStrategy s : kHgStrategies) {
    owned.push_back(MakeSegmentIndex(s, TestGrid()));
    ASSERT_TRUE(owned.back()->Build(Span<const SegmentEntry>(f.entries)).ok());
    grids.push_back(owned.back().get());
  }
  const auto apply = [&](auto&& op) {
    ASSERT_TRUE(op(*linear).ok());
    for (auto& grid : owned) ASSERT_TRUE(op(*grid).ok());
  };

  Rng rng(11);
  std::vector<SegmentEntry> live = f.entries;
  std::vector<SegmentEntry> removed;
  const std::vector<Point> probe(f.queries.begin(), f.queries.begin() + 90);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 300; ++i) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<double>(live.size())));
      const SegmentHandle h = live[pick].handle;
      apply([h](SegmentIndex& index) { return index.Remove(h); });
      removed.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    for (int i = 0; i < 150; ++i) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<double>(removed.size())));
      const SegmentEntry e = removed[pick];
      apply([&e](SegmentIndex& index) { return index.Insert(e); });
      live.push_back(e);
      removed[pick] = removed.back();
      removed.pop_back();
    }
    ExpectMatchesLinear(*linear, grids, probe);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BlockSkipTest, BatchedAndScalarAgreeOnResultsAndEvaluations) {
  const Fixture f = MakeFixture(13);
  const auto even_traj = [](const SegmentEntry& e) {
    return e.traj % 2 == 0;
  };
  for (const SearchStrategy s : kHgStrategies) {
    const auto index = MakeSegmentIndex(s, TestGrid());
    ASSERT_TRUE(index->Build(Span<const SegmentEntry>(f.entries)).ok());
    for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
      for (const bool filtered : {false, true}) {
        SearchOptions options;
        options.k = 4;
        options.group_by = mode;
        if (filtered) options.filter = even_traj;
        SearchContext batched_ctx;
        SearchContext scalar_ctx;
        uint64_t batched_evals = 0;
        uint64_t scalar_evals = 0;
        for (const Point& q : f.queries) {
          options.use_batched_kernel = true;
          uint64_t before = index->distance_evaluations();
          const Span<const Neighbor> batched =
              index->KNearest(q, options, &batched_ctx);
          batched_evals += index->distance_evaluations() - before;
          options.use_batched_kernel = false;
          before = index->distance_evaluations();
          const Span<const Neighbor> scalar =
              index->KNearest(q, options, &scalar_ctx);
          scalar_evals += index->distance_evaluations() - before;
          ASSERT_EQ(batched.size(), scalar.size());
          for (size_t i = 0; i < batched.size(); ++i) {
            ASSERT_EQ(batched[i].entry.handle, scalar[i].entry.handle);
            ASSERT_EQ(batched[i].dist, scalar[i].dist);
          }
        }
        EXPECT_EQ(batched_evals, scalar_evals) << Label(s, mode, filtered);
      }
    }
  }
}

TEST(BlockSkipTest, EvaluatesStrictlyFewerThanSweepingTheRoot) {
  // Every query visits the root (it is an ancestor of every cell), so
  // without block skipping each query evaluates at least the root's
  // residents. With skipping the total must fall strictly below that.
  // Checked for the bottom-up searches, which reach the root with a
  // threshold already set by the fine cells around q; HGt sweeps the root
  // first, with no threshold, so it cannot skip much there by design.
  const Fixture f = MakeFixture(17);
  for (const SearchStrategy s :
       {SearchStrategy::kBottomUp, SearchStrategy::kBottomUpDown}) {
    HierarchicalGridIndex index(TestGrid(), s);
    ASSERT_TRUE(index.Build(Span<const SegmentEntry>(f.entries)).ok());
    const uint64_t root =
        index.CellSegments(CellCoord{0, 0, 0}).size();
    for (const GroupBy mode : {GroupBy::kSegment, GroupBy::kTrajectory}) {
      SearchOptions options;
      options.k = 3;
      options.group_by = mode;
      SearchContext ctx;
      const uint64_t before = index.distance_evaluations();
      for (const Point& q : f.queries) index.KNearest(q, options, &ctx);
      const uint64_t evals = index.distance_evaluations() - before;
      EXPECT_LT(evals, root * f.queries.size())
          << Label(s, mode, /*filtered=*/false);
    }
  }
}

TEST(SegmentGeomSoATest, BlockBoxesBoundLiveLanesUnderChurn) {
  // The conservative-box invariant directly: after any mix of PushBack
  // and SwapRemove, every block's box contains each live lane's endpoints.
  Rng rng(19);
  SegmentGeomSoA soa;
  std::vector<Segment> mirror;
  const auto random_segment = [&rng] {
    const Point a{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    return Segment{a, {a.x + rng.Uniform(-50, 50), a.y + rng.Uniform(-50, 50)}};
  };
  for (int step = 0; step < 2000; ++step) {
    if (mirror.empty() || rng.Uniform(0, 1) < 0.6) {
      mirror.push_back(random_segment());
      soa.PushBack(mirror.back());
    } else {
      const size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<double>(mirror.size())));
      soa.SwapRemove(i, mirror.back());
      mirror[i] = mirror.back();
      mirror.pop_back();
    }
    if (step % 50 == 0 && mirror.size() > 20) {
      // Drain to a block boundary and refill: lane 0 rewrites reset boxes.
      while (mirror.size() % kDistLanes != 0) {
        soa.SwapRemove(mirror.size() - 1, mirror.back());
        mirror.pop_back();
      }
    }
    ASSERT_EQ(soa.size(), mirror.size());
    for (size_t i = 0; i < mirror.size(); ++i) {
      const BBox& box = soa.block(i / kDistLanes).box;
      ASSERT_TRUE(box.ContainsSegment(mirror[i])) << "step " << step;
    }
  }
}

TEST(SegmentGeomSoATest, BlockBeyondNeverDropsATiedLane) {
  // A lane whose kernel distance equals the threshold must not be
  // skipped, even when the box bound rounds differently from the kernel.
  SegmentGeomSoA soa;
  const Segment s{{1234.5678, 4321.8765}, {1299.125, 4400.0625}};
  soa.PushBack(s);
  const SegmentGeomBlock& block = soa.block(0);
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const Point q{rng.Uniform(0, kRegionSize), rng.Uniform(0, kRegionSize)};
    double d2[kDistLanes];
    PointSegmentDistance2Batch(q, block, d2);
    EXPECT_FALSE(BlockBeyond(q, block, d2[0]));
    // ...while a box clearly beyond the threshold is skipped.
    const double bound2 = MinDist2PointBBox(q, block.box);
    if (bound2 > 1.0) {
      EXPECT_TRUE(BlockBeyond(q, block, 0.5 * bound2));
    }
  }
}

}  // namespace
}  // namespace frt
