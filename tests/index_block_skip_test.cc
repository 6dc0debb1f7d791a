// Block-skipping exactness suite for the hierarchical grid.
//
// Every segment that crosses a dyadic boundary lives in a coarse cell, and
// every ancestor of a query has MINdist 0, so the grid's cell pruning can
// never skip those cells. SweepCell instead skips whole 8-lane blocks whose
// (conservative) bounding box lies beyond the current K-th distance. These
// tests build a fixture of trajectories zigzagging across the region's
// midlines — hundreds of root residents, consecutive segments sharing a
// vertex so exact ties are common — and assert that skipping changes the
// work but never the answer: results equal the linear scan's (handle,
// dist) at every rank in both grouping modes, with a filter, and after
// interleaved Remove/Insert calls that leave boxes stale; and the
// evaluation count falls strictly below what sweeping the root alone would
// cost. The SoA layer underneath is checked directly: block boxes bound
// their live lanes, and every live lane of the batched kernel equals the
// scalar PointSegmentDistance2 bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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

/// A query's (handle, dist) pairs in rank order. Equal to the linear
/// scan's bit for bit: ties break by (dist², handle), so even among
/// exactly tied segments the same one is kept whatever the offer order.
using RankedHits = std::vector<std::pair<SegmentHandle, double>>;
RankedHits Hits(Span<const Neighbor> hits) {
  RankedHits out;
  for (const Neighbor& n : hits) out.emplace_back(n.entry.handle, n.dist);
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
          const auto want = Hits(linear.KNearest(q, options, &ref_ctx));
          ASSERT_EQ(Hits(grid->KNearest(q, options, &ctx)), want)
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

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Asserts every live lane of `soa` evaluates, through the batched
/// kernel, to exactly PointSegmentDistance2 of its mirrored segment at
/// each query.
void ExpectKernelMatchesScalar(const SegmentGeomSoA& soa,
                               const std::vector<Segment>& mirror,
                               const std::vector<Point>& queries) {
  for (const Point& q : queries) {
    for (size_t base = 0; base < mirror.size(); base += kDistLanes) {
      double d2[kDistLanes];
      PointSegmentDistance2Batch(q, soa.block(base / kDistLanes), d2);
      const size_t lanes = std::min(kDistLanes, mirror.size() - base);
      for (size_t i = 0; i < lanes; ++i) {
        const double want = PointSegmentDistance2(q, mirror[base + i]);
        // Bitwise: EXPECT_EQ would also pass +0.0 against -0.0.
        EXPECT_EQ(Bits(d2[i]), Bits(want))
            << "lane " << base + i << " at (" << q.x << ", " << q.y
            << "): " << d2[i] << " vs " << want;
      }
    }
  }
}

TEST(SegmentGeomSoATest, BatchedKernelEqualsScalarBitForBit) {
  // The one distance kernel every HG sweep runs must reproduce the scalar
  // function the linear scan uses, lane by lane, at every coordinate
  // scale, on degenerate and signed-zero geometry, in partly filled
  // blocks and after SwapRemove has moved lanes around.
  Rng rng(29);
  for (const double scale : {1e-3, 1.0, 1e4, 1e7}) {
    SCOPED_TRACE(scale);
    SegmentGeomSoA soa;
    std::vector<Segment> mirror;
    const auto coord = [&rng, scale] { return rng.Uniform(-scale, scale); };
    // 50 random + 3 signed-zero segments: the last block is part full.
    for (int i = 0; i < 50; ++i) {
      const Point a{coord(), coord()};
      Point b{coord(), coord()};
      if (i % 7 == 0) b = a;  // zero-length: distance to endpoint a
      if (i % 11 == 0) b = {a.x + scale * 1e-9, a.y};  // near-degenerate
      mirror.push_back({a, b});
      soa.PushBack(mirror.back());
    }
    // Signed zeros on both sides of the kernel.
    for (const Segment& z : {Segment{{0.0, -0.0}, {-0.0, 0.0}},
                             Segment{{-0.0, -0.0}, {scale, -0.0}},
                             Segment{{0.0, scale}, {-0.0, -scale}}}) {
      mirror.push_back(z);
      soa.PushBack(z);
    }
    std::vector<Point> queries;
    for (int i = 0; i < 40; ++i) queries.push_back({coord(), coord()});
    queries.push_back({0.0, 0.0});
    queries.push_back({-0.0, -0.0});
    queries.push_back({-0.0, scale});
    queries.push_back(mirror[7].a);  // on a zero-length segment
    queries.push_back(mirror[1].b);  // on an endpoint
    ASSERT_EQ(soa.size(), mirror.size());
    ExpectKernelMatchesScalar(soa, mirror, queries);

    // SwapRemove moves the last lane into the hole: lanes migrate between
    // blocks and the tail block shrinks to a partial fill.
    for (int i = 0; i < 20; ++i) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<double>(mirror.size())));
      soa.SwapRemove(pick, mirror.back());
      mirror[pick] = mirror.back();
      mirror.pop_back();
    }
    ASSERT_EQ(soa.size(), mirror.size());
    ExpectKernelMatchesScalar(soa, mirror, queries);
    if (::testing::Test::HasFailure()) return;
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

TEST(SegmentGeomSoATest, BoxBeyondNeverDropsATiedLaneAtAnUpperLevel) {
  // The window audit's tree prunes whole subtrees with BoxBeyond on boxes
  // that bound many blocks. Sixty-four segments far from the origin (so
  // the kernel's rounding is large in absolute terms) fill eight blocks;
  // a lane whose kernel distance² is the threshold must survive the check
  // on its block's box, on the union of its block with a neighbour (the
  // next level up) and on the union of all eight (the root), for query
  // points anywhere and right beside the segment.
  Rng rng(29);
  SegmentGeomSoA soa;
  std::vector<Segment> segments;
  for (int i = 0; i < 64; ++i) {
    const Point a{rng.Uniform(4.0e6, 4.0e6 + 500.0),
                  rng.Uniform(-3.0e6, -3.0e6 + 500.0)};
    const Point b{a.x + rng.Uniform(-300.0, 300.0),
                  a.y + rng.Uniform(-300.0, 300.0)};
    segments.push_back({a, b});
    soa.PushBack(segments.back());
  }
  const size_t blocks = soa.size() / kDistLanes;
  BBox root = BBox::Empty();
  for (size_t b = 0; b < blocks; ++b) root.Extend(soa.block(b).box);
  for (int i = 0; i < 2000; ++i) {
    const size_t lane = rng.UniformInt(uint64_t{segments.size()});
    const Segment& s = segments[lane];
    const double t = rng.Uniform();
    const Point on{s.a.x + (s.b.x - s.a.x) * t, s.a.y + (s.b.y - s.a.y) * t};
    const Point q = i % 2 == 0
                        ? Point{on.x + rng.Uniform(-1e-6, 1e-6),
                                on.y + rng.Uniform(-1e-6, 1e-6)}
                        : Point{rng.Uniform(3.9e6, 4.1e6),
                                rng.Uniform(-3.1e6, -2.9e6)};
    const size_t b = lane / kDistLanes;
    double d2[kDistLanes];
    PointSegmentDistance2Batch(q, soa.block(b), d2);
    const double tie = d2[lane % kDistLanes];
    ASSERT_EQ(tie, PointSegmentDistance2(q, s));
    BBox pair = soa.block(b).box;
    pair.Extend(soa.block(b ^ 1).box);
    EXPECT_FALSE(BlockBeyond(q, soa.block(b), tie));
    EXPECT_FALSE(BoxBeyond(q, pair, tie));
    EXPECT_FALSE(BoxBeyond(q, root, tie));
  }
  // ...while a root clearly beyond the threshold is skipped.
  const Point far{0.0, 0.0};
  EXPECT_TRUE(BoxBeyond(far, root, 0.5 * MinDist2PointBBox(far, root)));
}

TEST(SegmentGeomSoATest, BoxWithInfiniteExtentNeverPrunes) {
  // A segment with an infinite endpoint has a NaN kernel everywhere; its
  // box must never be skipped on the strength of an overflowing bound.
  const double inf = std::numeric_limits<double>::infinity();
  const BBox box{0.0, 0.0, inf, 1.0};
  EXPECT_FALSE(BoxBeyond(Point{-5.0, 0.5}, box, 1.0));
  EXPECT_FALSE(BoxBeyond(Point{-5.0, 0.5}, box, 0.0));
  const BBox beyond{inf, 0.0, inf, 1.0};
  EXPECT_FALSE(BoxBeyond(Point{-5.0, 0.5}, beyond, 1.0));
}

}  // namespace
}  // namespace frt
