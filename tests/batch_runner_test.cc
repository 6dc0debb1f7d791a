// Unit tests for runtime/batch_runner.h: shard semantics, determinism,
// merge order, report aggregation, and parallel-composition accounting.

#include "runtime/batch_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "geo/morton.h"
#include "index/search_context.h"
#include "index/segment_index.h"
#include "runtime/window_audit.h"
#include "synth/workload.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::DatasetsEqual;
using frt::testing::SmallPipeline;

Dataset SmallFleet(int taxis, uint64_t seed) {
  return frt::testing::TaxiFleet(taxis, /*target_points=*/60,
                                 /*grid_cols_rows=*/12, seed);
}

/// A dataset whose i-th trajectory (id i + 1) visits `trajs[i]` in order.
Dataset PointDataset(const std::vector<std::vector<Point>>& trajs) {
  Dataset out;
  for (size_t i = 0; i < trajs.size(); ++i) {
    Trajectory t(static_cast<TrajId>(i + 1));
    for (size_t j = 0; j < trajs[i].size(); ++j) {
      t.Append(trajs[i][j], static_cast<int64_t>(j));
    }
    EXPECT_TRUE(out.Add(std::move(t)).ok());
  }
  return out;
}

/// The audit's aggregates, computed without an index or a vertex table.
struct ReferenceAudit {
  uint64_t points = 0;
  double mean = 0.0;
  double max = 0.0;
  uint64_t distance_evaluations = 0;
};

/// Brute force: each published point's minimum PointSegmentDistance over
/// every original segment (std::min skips a NaN distance; a point with a
/// NaN coordinate, whose distances are all NaN, reports NaN), summed per
/// range with the audit's fixed range split and merged in range order, so
/// RunWindowAudit must match it bit for bit.
ReferenceAudit BruteForceAudit(const Dataset& original,
                               const Dataset& published, int ranges) {
  std::vector<Segment> segments;
  for (const Trajectory& t : original.trajectories()) {
    for (size_t i = 0; i < t.NumSegments(); ++i) {
      segments.push_back(t.SegmentAt(i));
    }
  }
  const size_t n = published.size();
  const size_t count = std::clamp<size_t>(static_cast<size_t>(ranges), 1, n);
  ReferenceAudit out;
  double sum = 0.0;
  for (size_t r = 0; r < count; ++r) {
    const size_t begin = r * (n / count) + std::min(r, n % count);
    const size_t end = begin + n / count + (r < n % count ? 1 : 0);
    double range_sum = 0.0;
    for (size_t t = begin; t < end; ++t) {
      for (const TimedPoint& tp : published[t].points()) {
        double best = std::isnan(tp.p.x) || std::isnan(tp.p.y)
                          ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
        for (const Segment& s : segments) {
          best = std::min(best, PointSegmentDistance(tp.p, s));
        }
        ++out.points;
        range_sum += best;
        out.max = std::max(out.max, best);
      }
    }
    sum += range_sum;
  }
  out.distance_evaluations = out.points * segments.size();
  if (out.points > 0) out.mean = sum / static_cast<double>(out.points);
  return out;
}

/// An HG+ index over a 10-level grid, the shipped kNN index the audit's
/// segment trees are compared with.
std::unique_ptr<SegmentIndex> ReferenceIndex(const BBox& region) {
  return MakeSegmentIndex(SearchStrategy::kBottomUpDown,
                          GridSpec(region, 10));
}

/// Index only: a k=1 search for every published point over an
/// input-order HG+ build, summed in input order (the audit with one
/// range).
ReferenceAudit IndexOnlyAudit(const Dataset& original,
                              const Dataset& published) {
  std::vector<SegmentEntry> entries;
  BBox region = BBox::Empty();
  for (const Trajectory& t : original.trajectories()) {
    for (size_t i = 0; i < t.NumSegments(); ++i) {
      const Segment s = t.SegmentAt(i);
      entries.push_back(SegmentEntry{entries.size(), t.id(), s});
      region.Extend(s.a);
      region.Extend(s.b);
    }
  }
  const auto index = ReferenceIndex(region);
  EXPECT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());
  SearchContext ctx;
  SearchOptions options;
  options.k = 1;
  ReferenceAudit out;
  double sum = 0.0;
  for (const Trajectory& t : published.trajectories()) {
    for (const TimedPoint& tp : t.points()) {
      const Span<const Neighbor> hits = index->KNearest(tp.p, options, &ctx);
      if (hits.empty()) continue;
      ++out.points;
      sum += hits[0].dist;
      out.max = std::max(out.max, hits[0].dist);
    }
  }
  out.distance_evaluations = index->distance_evaluations();
  if (out.points > 0) out.mean = sum / static_cast<double>(out.points);
  return out;
}

/// Asserts `report` is bit-identical to `reference` (points, mean, max).
void ExpectReportEquals(const WindowAuditReport& report,
                        const ReferenceAudit& reference) {
  ASSERT_TRUE(report.ran);
  EXPECT_EQ(report.points_audited, reference.points);
  EXPECT_EQ(report.mean_displacement, reference.mean);
  EXPECT_EQ(report.max_displacement, reference.max);
}

/// The audit split into `count` parts over `original`, one per
/// PlanShards range, as BatchRunner splits its input into shards.
std::vector<WindowAuditPart> BuildParts(const Dataset& original, int count) {
  std::vector<WindowAuditPart> parts;
  for (const ShardRange& range : PlanShards(original.size(), count)) {
    parts.emplace_back(original, range);
  }
  return parts;
}

/// Bit-equality of two doubles; NaN equals NaN.
bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Asserts the deterministic aggregates of two reports are bit-equal.
void ExpectSameAggregates(const WindowAuditReport& got,
                          const WindowAuditReport& want) {
  ASSERT_TRUE(got.ran);
  ASSERT_TRUE(want.ran);
  EXPECT_EQ(got.points_audited, want.points_audited);
  EXPECT_EQ(got.vertex_hits, want.vertex_hits);
  EXPECT_TRUE(SameBits(got.mean_displacement, want.mean_displacement))
      << got.mean_displacement << " vs " << want.mean_displacement;
  EXPECT_TRUE(SameBits(got.max_displacement, want.max_displacement))
      << got.max_displacement << " vs " << want.max_displacement;
}

TEST(BatchRunnerTest, EmptyDatasetIsRejected) {
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(1);
  auto out = runner.Anonymize(Dataset(), rng);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(BatchRunnerTest, SingleShardMatchesForkedSingleShot) {
  // BatchRunner(K=1) must reproduce a plain pipeline run that consumes the
  // first fork of the same master stream.
  const Dataset input = SmallFleet(24, 11);

  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 1;
  BatchRunner runner(config);
  Rng batch_rng(123);
  auto batched = runner.Anonymize(input, batch_rng);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  FrequencyRandomizer pipeline(SmallPipeline());
  Rng master(123);
  Rng forked = master.Fork();
  auto single = pipeline.Anonymize(input, forked);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  EXPECT_TRUE(DatasetsEqual(*batched, *single));
  EXPECT_EQ(runner.report().epsilon_spent, pipeline.report().epsilon_spent);
}

TEST(BatchRunnerTest, ShardedRunEqualsConcatenationOfPerShardRuns) {
  // K shards with the batch runner == running the pipeline by hand on each
  // contiguous partition with the matching forked stream, concatenated.
  const Dataset input = SmallFleet(30, 17);
  const int kShards = 3;

  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = kShards;
  WorkStealingPool pool(2);
  config.pool = &pool;
  BatchRunner runner(config);
  Rng batch_rng(99);
  auto batched = runner.Anonymize(input, batch_rng);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  Rng master(99);
  const auto plan = PlanShards(input.size(), kShards);
  ASSERT_EQ(plan.size(), static_cast<size_t>(kShards));
  std::vector<Rng> streams;
  for (size_t i = 0; i < plan.size(); ++i) streams.push_back(master.Fork());

  Dataset expected;
  for (size_t i = 0; i < plan.size(); ++i) {
    Dataset shard;
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      ASSERT_TRUE(shard.Add(input[j]).ok());
    }
    FrequencyRandomizer pipeline(SmallPipeline());
    auto out = pipeline.Anonymize(shard, streams[i]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (auto& t : out->mutable_trajectories()) {
      ASSERT_TRUE(expected.Add(std::move(t)).ok());
    }
  }
  EXPECT_TRUE(DatasetsEqual(*batched, expected));
}

TEST(BatchRunnerTest, DeterministicAcrossThreadCounts) {
  // Same seed and shard count => identical output no matter how many
  // worker threads execute the shards.
  const Dataset input = SmallFleet(24, 5);
  auto run = [&](unsigned threads) {
    WorkStealingPool pool(threads);
    BatchRunnerConfig config;
    config.pipeline = SmallPipeline();
    config.shards = 4;
    config.pool = &pool;
    BatchRunner runner(config);
    Rng rng(2024);
    auto out = runner.Anonymize(input, rng);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *std::move(out);
  };
  const Dataset base = run(1);
  EXPECT_TRUE(DatasetsEqual(base, run(2)));
  EXPECT_TRUE(DatasetsEqual(base, run(8)));
}

TEST(BatchRunnerTest, PreservesTrajectoryIdsInInputOrder) {
  const Dataset input = SmallFleet(20, 3);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(7);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ((*out)[i].id(), input[i].id());
  }
}

TEST(BatchRunnerTest, ParallelCompositionAccounting) {
  // Every shard spends eps_G + eps_L on a disjoint sub-population, so the
  // dataset-level guarantee is the per-shard maximum — identical to the
  // single-shot spend, regardless of K.
  const Dataset input = SmallFleet(24, 29);
  for (const int shards : {1, 2, 4, 8}) {
    BatchRunnerConfig config;
    config.pipeline = SmallPipeline();
    config.shards = shards;
    BatchRunner runner(config);
    Rng rng(31);
    auto out = runner.Anonymize(input, rng);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_DOUBLE_EQ(runner.report().epsilon_spent, 1.0) << shards;
    EXPECT_DOUBLE_EQ(runner.report().combined.epsilon_spent, 1.0) << shards;
    ASSERT_EQ(runner.report().per_shard.size(),
              static_cast<size_t>(runner.report().shards_run));
    for (const auto& shard_report : runner.report().per_shard) {
      EXPECT_DOUBLE_EQ(shard_report.epsilon_spent, 1.0);
    }
  }
}

TEST(BatchRunnerTest, ShardCountClampedToDatasetSize) {
  const Dataset input = SmallFleet(6, 13);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 64;
  BatchRunner runner(config);
  Rng rng(17);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(runner.report().shards_run, 6);
  EXPECT_EQ(out->size(), input.size());
}

TEST(BatchRunnerTest, CombinedReportSumsShardEdits) {
  const Dataset input = SmallFleet(24, 41);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 3;
  BatchRunner runner(config);
  Rng rng(53);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const BatchReport& report = runner.report();
  size_t local_ins = 0, local_del = 0, global_ins = 0, global_del = 0;
  size_t candidates = 0;
  for (const auto& r : report.per_shard) {
    local_ins += r.local.edits.insertions;
    local_del += r.local.edits.deletions;
    global_ins += r.global.edits.insertions;
    global_del += r.global.edits.deletions;
    candidates += r.candidate_set_size;
  }
  EXPECT_EQ(report.combined.local.edits.insertions, local_ins);
  EXPECT_EQ(report.combined.local.edits.deletions, local_del);
  EXPECT_EQ(report.combined.global.edits.insertions, global_ins);
  EXPECT_EQ(report.combined.global.edits.deletions, global_del);
  EXPECT_EQ(report.combined.candidate_set_size, candidates);
  EXPECT_GE(report.wall_seconds, 0.0);
}

TEST(BatchRunnerTest, ReportsShardObjectIdsMatchingThePlan) {
  // The per-object streaming accountant charges exactly the ids a window
  // released, so the report must list every input id once, in shard order.
  const Dataset input = SmallFleet(20, 3);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(7);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& shard_ids = runner.report().shard_object_ids;
  const auto plan = PlanShards(input.size(), 4);
  ASSERT_EQ(shard_ids.size(), plan.size());
  size_t total = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    ASSERT_EQ(shard_ids[i].size(), plan[i].size());
    for (size_t j = 0; j < shard_ids[i].size(); ++j) {
      EXPECT_EQ(shard_ids[i][j], input[plan[i].begin + j].id());
    }
    total += shard_ids[i].size();
  }
  EXPECT_EQ(total, input.size());
}

TEST(WindowAuditTest, PooledAndSerialRunsReportIdentically) {
  // Workers share one index through private contexts; the fixed range
  // split and range-order merge make every aggregate independent of the
  // pool.
  const Dataset input = SmallFleet(20, 29);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(7);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  WindowAuditConfig config;
  config.enabled = true;
  config.ranges = 4;

  WorkStealingPool pool(4);
  const WindowAuditReport pooled =
      RunWindowAudit(input, *published, config, &pool);
  const WindowAuditReport serial =
      RunWindowAudit(input, *published, config, nullptr);

  ASSERT_TRUE(pooled.ran);
  ASSERT_TRUE(serial.ran);
  EXPECT_GT(pooled.points_audited, 0u);
  EXPECT_EQ(pooled.points_audited, serial.points_audited);
  EXPECT_EQ(pooled.mean_displacement, serial.mean_displacement);
  EXPECT_EQ(pooled.max_displacement, serial.max_displacement);
  EXPECT_EQ(pooled.distance_evaluations, serial.distance_evaluations);
  EXPECT_EQ(pooled.vertex_hits, serial.vertex_hits);
}

TEST(WindowAuditTest, ReportDoesNotDependOnInputOrder) {
  // Each part stores its segments in Morton order of their midpoints and
  // searches its home part first. Published points often sit exactly on an
  // original vertex that two consecutive segments share, so ties are real
  // — but the audit only sums nearest distances, so permuting the input's
  // trajectories (which changes every part's contents and every point's
  // home) must leave the report bit-identical, at every part count.
  const Dataset input = SmallFleet(40, 43);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(5);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport audit =
      RunWindowAudit(input, *published, config, nullptr);
  ASSERT_TRUE(audit.ran);
  ASSERT_GT(audit.points_audited, audit.vertex_hits);

  std::vector<size_t> order(input.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffle(17);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.UniformInt(uint64_t{i})]);
  }
  Dataset permuted;
  for (const size_t i : order) {
    ASSERT_TRUE(permuted.Add(Trajectory(input[i])).ok());
  }
  for (const int count : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(count);
    const std::vector<WindowAuditPart> parts = BuildParts(permuted, count);
    ExpectSameAggregates(RunWindowAudit(parts, *published, config, nullptr),
                         audit);
  }
}

TEST(WindowAuditTest, DisabledOrEmptyAuditDoesNotRun) {
  const Dataset input = SmallFleet(4, 31);
  WindowAuditConfig config;  // enabled defaults to false
  EXPECT_FALSE(RunWindowAudit(input, input, config, nullptr).ran);
  config.enabled = true;
  EXPECT_FALSE(RunWindowAudit(Dataset(), input, config, nullptr).ran);
  EXPECT_FALSE(RunWindowAudit(input, Dataset(), config, nullptr).ran);
}

TEST(WindowAuditTest, MatchesBruteForceOnAdversarialFixtures) {
  // Segment (0,0)->(40.1,-46.9) is one whose kernel t rounds to
  // 1 - 2^-53 at its end vertex, so the exact displacement there is
  // ~1e-14, not 0: such an end vertex must go to the search.
  const Dataset original = PointDataset({
      {{0.0, 0.0}, {40.1, -46.9}},
      {{10.0, 10.0}, {10.0, 10.0}, {20.0, 15.0}},  // zero-length segment
      {{30.0, 30.0}, {30.0, 30.0}},                // only a zero-length one
      {{-0.0, 5.0}, {0.0, 25.0}, {-7.5, -0.0}},    // signed zeros
      {{50.0, 50.0}},                              // one point, no segment
      {{-20.0, 40.0}, {-35.5, 12.25}, {-20.0, 40.0}},
  });
  const Dataset published = PointDataset({
      // Segment starts, and an end-only vertex.
      {{0.0, 0.0}, {40.1, -46.9}, {10.0, 10.0}},
      // A zero-length segment's start, a last vertex, a lone point.
      {{30.0, 30.0}, {20.0, 15.0}, {50.0, 50.0}},
      // Starts and an end vertex with the opposite zero signs.
      {{0.0, 5.0}, {-0.0, 25.0}, {-7.5, 0.0}, {-0.0, -0.0}},
      // Points off every vertex, and a start.
      {{1.0, 2.0}, {-35.5, 12.25}, {12.3, -4.5}},
      {{10.0, 10.0}},
  });
  ASSERT_GT(PointSegmentDistance(Point{40.1, -46.9},
                                 Segment{{0.0, 0.0}, {40.1, -46.9}}),
            0.0);

  WorkStealingPool pool(3);
  for (const int ranges : {1, 2, 5, 8}) {
    SCOPED_TRACE(ranges);
    WindowAuditConfig config;
    config.enabled = true;
    config.ranges = ranges;
    const WindowAuditReport serial =
        RunWindowAudit(original, published, config, nullptr);
    ExpectReportEquals(serial, BruteForceAudit(original, published, ranges));
    // 8 published points equal a segment start: (0,0) twice (once as
    // (-0,-0)), (10,10) twice, (30,30), (0,5), (0,25), (-35.5,12.25);
    // and 2 equal a last vertex whose kernel is exactly 0: (20,15) and
    // (-7.5,0) (held as (-7.5,-0)).
    EXPECT_EQ(serial.vertex_hits, 10u);
    const WindowAuditReport pooled =
        RunWindowAudit(original, published, config, &pool);
    EXPECT_EQ(pooled.points_audited, serial.points_audited);
    EXPECT_EQ(pooled.mean_displacement, serial.mean_displacement);
    EXPECT_EQ(pooled.max_displacement, serial.max_displacement);
    EXPECT_EQ(pooled.vertex_hits, serial.vertex_hits);
    EXPECT_EQ(pooled.distance_evaluations, serial.distance_evaluations);
  }
}

TEST(WindowAuditTest, IdentityReleaseMatchesBruteForce) {
  // Published == original: every point but the last of each trajectory
  // is a segment start; a last vertex hits when its last segment's kernel
  // is exactly 0 there, and is searched otherwise.
  const Dataset input = SmallFleet(8, 41);
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport audit = RunWindowAudit(input, input, config,
                                                 nullptr);
  ExpectReportEquals(audit, BruteForceAudit(input, input, config.ranges));
  uint64_t exact_ends = 0;
  for (const Trajectory& t : input.trajectories()) {
    const Segment last = t.SegmentAt(t.NumSegments() - 1);
    if (PointSegmentDistance2(last.b, last) == 0.0) ++exact_ends;
  }
  EXPECT_EQ(audit.vertex_hits,
            audit.points_audited - input.size() + exact_ends);
}

TEST(WindowAuditTest, LastVertexWithExactKernelIsAVertexHit) {
  // The kernel at the end vertex b of (0,0)->(10,0) is exactly 0 (t
  // rounds to 1), and at the end of (0,25)->(-7.5,-0.0) too, published
  // with the other zero sign; at the end of (0,0)->(40.1,-46.9) it is
  // ~1e-28 (t rounds below 1). The first two are answered by the table
  // without a search, the third is searched.
  const Dataset original = PointDataset({
      {{0.0, 0.0}, {10.0, 0.0}},
      {{0.0, 25.0}, {-7.5, -0.0}},
      {{0.0, 0.0}, {40.1, -46.9}},
  });
  const Segment exact{{0.0, 0.0}, {10.0, 0.0}};
  const Segment signed_zero{{0.0, 25.0}, {-7.5, -0.0}};
  const Segment inexact{{0.0, 0.0}, {40.1, -46.9}};
  ASSERT_EQ(PointSegmentDistance2(exact.b, exact), 0.0);
  ASSERT_EQ(PointSegmentDistance2(signed_zero.b, signed_zero), 0.0);
  ASSERT_GT(PointSegmentDistance2(inexact.b, inexact), 0.0);
  WindowAuditConfig config;
  config.enabled = true;

  const Dataset ends = PointDataset({{{10.0, 0.0}, {-7.5, 0.0}}});
  const WindowAuditReport hit =
      RunWindowAudit(original, ends, config, nullptr);
  ExpectReportEquals(hit, BruteForceAudit(original, ends, config.ranges));
  ExpectReportEquals(hit, IndexOnlyAudit(original, ends));
  EXPECT_EQ(hit.points_audited, 2u);
  EXPECT_EQ(hit.vertex_hits, 2u);
  EXPECT_EQ(hit.distance_evaluations, 0u);
  EXPECT_EQ(hit.max_displacement, 0.0);

  const Dataset off = PointDataset({{{40.1, -46.9}}});
  const WindowAuditReport searched =
      RunWindowAudit(original, off, config, nullptr);
  ExpectReportEquals(searched, BruteForceAudit(original, off, config.ranges));
  EXPECT_EQ(searched.vertex_hits, 0u);
  EXPECT_GT(searched.distance_evaluations, 0u);
}

TEST(WindowAuditTest, ReleaseAuditMatchesBruteForceAndSkipsSearches) {
  // The workload of MortonOrderedBuildMatchesInputOrderBuild: the fast
  // path must answer some points from the vertex table, search less than
  // the index-only loop, and report what brute force and the index-only
  // loop report.
  const Dataset input = SmallFleet(40, 43);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(5);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  WindowAuditConfig config;
  config.enabled = true;
  config.ranges = 1;
  const WindowAuditReport audit =
      RunWindowAudit(input, *published, config, nullptr);
  const ReferenceAudit index_only = IndexOnlyAudit(input, *published);
  ExpectReportEquals(audit, index_only);
  ExpectReportEquals(audit, BruteForceAudit(input, *published, 1));
  EXPECT_GT(audit.vertex_hits, 0u);
  EXPECT_LT(audit.distance_evaluations, index_only.distance_evaluations);

  config.ranges = 8;
  ExpectReportEquals(RunWindowAudit(input, *published, config, nullptr),
                     BruteForceAudit(input, *published, 8));
}

TEST(WindowAuditTest, StartWithNonFiniteKernelIsSearched) {
  // The kernel is NaN, not 0, at the start `a` of a segment whose
  // length² 1e-320 is subnormal (SegmentInvLen2 = inf, 0 * inf) or whose
  // b - a overflows (0 * inf again). The table must leave such a start to
  // the search, which skips the NaN lane as brute force's std::min does:
  // (0,-80) gets its distance to (10,10)->(20,15), and (1e308,0) gets inf
  // (that distance² overflows).
  const std::vector<Point> starts = {{0.0, -80.0}, {1e308, 0.0}};
  const std::vector<Point> ends = {{1e-160, -80.0}, {-1e308, 0.0}};
  for (size_t i = 0; i < starts.size(); ++i) {
    SCOPED_TRACE(i);
    const Dataset original = PointDataset({
        {starts[i], ends[i]},
        {{10.0, 10.0}, {20.0, 15.0}},
    });
    const Dataset published = PointDataset({{starts[i], {10.0, 10.0}}});
    WindowAuditConfig config;
    config.enabled = true;
    const WindowAuditReport audit =
        RunWindowAudit(original, published, config, nullptr);
    ExpectReportEquals(audit,
                       BruteForceAudit(original, published, config.ranges));
    EXPECT_EQ(audit.vertex_hits, 1u);
  }
}

TEST(WindowAuditTest, NanPointIsNeverAVertexHit) {
  // NaN never compares equal, so it cannot be answered by the table.
  const Dataset original = PointDataset({{{0.0, 0.0}, {10.0, 0.0}}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Dataset published =
      PointDataset({{{0.0, 0.0}, {nan, 0.0}, {0.0, nan}}});
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport audit =
      RunWindowAudit(original, published, config, nullptr);
  ASSERT_TRUE(audit.ran);
  EXPECT_EQ(audit.vertex_hits, 1u);
}

/// The distance evaluations of searching every published point that is
/// not a segment start with a defined kernel, one search per point, over
/// an HG+ index bulk-built in Morton order of the segment midpoints — the
/// audit before coordinates were deduplicated.
uint64_t PerPointSearchEvals(const Dataset& original,
                             const Dataset& published) {
  std::vector<Segment> segments;
  std::vector<Point> starts;
  BBox region = BBox::Empty();
  for (const Trajectory& t : original.trajectories()) {
    for (size_t i = 0; i < t.NumSegments(); ++i) {
      const Segment s = t.SegmentAt(i);
      segments.push_back(s);
      region.Extend(s.a);
      region.Extend(s.b);
      const double dx = s.b.x - s.a.x;
      const double dy = s.b.y - s.a.y;
      if (std::isfinite(s.a.x) && std::isfinite(s.a.y) &&
          std::isfinite(dx) && std::isfinite(dy) &&
          std::isfinite(SegmentInvLen2(dx, dy))) {
        starts.push_back(s.a);
      }
    }
  }
  std::vector<uint64_t> order;
  for (size_t h = 0; h < segments.size(); ++h) {
    order.push_back((uint64_t{MortonKey(segments[h], region)} << 32) | h);
  }
  std::sort(order.begin(), order.end());
  std::vector<SegmentEntry> entries;
  for (const uint64_t key : order) {
    const size_t h = key & 0xffffffffu;
    entries.push_back(SegmentEntry{h, 0, segments[h]});
  }
  const auto index = ReferenceIndex(region);
  EXPECT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());
  SearchContext ctx;
  SearchOptions options;
  options.k = 1;
  for (const Trajectory& t : published.trajectories()) {
    for (const TimedPoint& tp : t.points()) {
      if (std::find(starts.begin(), starts.end(), tp.p) != starts.end()) {
        continue;
      }
      index->KNearest(tp.p, options, &ctx);
    }
  }
  return index->distance_evaluations();
}

/// Eight original trajectories and nine published ones for the parted
/// audit. The coordinate kRepeat lies off every vertex and appears in
/// every published trajectory, so it repeats in every range and in the
/// trajectories of every part; (-0.0, 3) and (0.0, 3) are two searched
/// coordinates; end-only vertices, a zero-length segment, a lone point
/// and signed-zero vertices are the adversarial fixtures above; and
/// trajectory 1 publishes the start of the last original trajectory, a
/// vertex owned by a different part at every part count above 1.
constexpr Point kRepeat{7.25, -3.5};

Dataset PartedOriginal() {
  return PointDataset({
      {{0.0, 0.0}, {40.1, -46.9}},
      {{10.0, 10.0}, {10.0, 10.0}, {20.0, 15.0}},
      {{30.0, 30.0}, {30.0, 30.0}},
      {{-0.0, 5.0}, {0.0, 25.0}, {-7.5, -0.0}},
      {{50.0, 50.0}},
      {{-20.0, 40.0}, {-35.5, 12.25}, {-20.0, 40.0}},
      {{100.0, -20.0}, {120.0, -20.0}, {120.0, 0.0}},
      {{-60.0, -60.0}, {-40.0, -70.0}},
  });
}

std::vector<std::vector<Point>> PartedPublished() {
  return {
      {{0.0, 0.0}, {40.1, -46.9}, {10.0, 10.0}, kRepeat, {-60.0, -60.0}},
      {{30.0, 30.0}, {20.0, 15.0}, {50.0, 50.0}, kRepeat},
      {{0.0, 5.0}, {-0.0, 25.0}, {-7.5, 0.0}, {-0.0, -0.0}, kRepeat},
      {{1.0, 2.0}, {-35.5, 12.25}, {12.3, -4.5}, kRepeat, {-0.0, 3.0}},
      {{10.0, 10.0}, kRepeat, {0.0, 3.0}},
      {kRepeat, {120.0, 0.0}, {100.0, -20.0}},
      {kRepeat, kRepeat, {-40.0, -70.0}},
      {{110.0, -10.0}, kRepeat, {-0.0, 3.0}},
      {{0.0, 3.0}, kRepeat, {12.3, -4.5}},
  };
}

TEST(WindowAuditTest, PartedAuditMatchesBruteForceAndOnePart) {
  const Dataset original = PartedOriginal();
  const Dataset published = PointDataset(PartedPublished());
  WorkStealingPool one(1);
  WorkStealingPool four(4);
  for (const int ranges : {1, 5, 8}) {
    WindowAuditConfig config;
    config.enabled = true;
    config.ranges = ranges;
    const WindowAuditReport one_part =
        RunWindowAudit(original, published, config, nullptr);
    ExpectReportEquals(one_part, BruteForceAudit(original, published, ranges));
    // (0,0) twice, (10,10) twice, (30,30), (0,5), (0,25), (-35.5,12.25),
    // (-60,-60) and (100,-20) are segment starts; (20,15), (-7.5,0),
    // (120,0) and (-40,-70) are last vertices whose kernel is exactly 0.
    EXPECT_EQ(one_part.vertex_hits, 14u);
    for (const int count : {1, 2, 4, 7}) {
      const std::vector<WindowAuditPart> parts = BuildParts(original, count);
      for (WorkStealingPool* pool : {static_cast<WorkStealingPool*>(nullptr),
                                     &one, &four}) {
        SCOPED_TRACE(::testing::Message()
                     << "ranges " << ranges << ", parts " << count
                     << ", pool " << (pool == nullptr ? 0 : pool->num_workers()));
        const WindowAuditReport parted =
            RunWindowAudit(parts, published, config, pool);
        ExpectReportEquals(parted,
                           BruteForceAudit(original, published, ranges));
        ExpectSameAggregates(parted, one_part);
        if (count == 1) {
          EXPECT_EQ(parted.distance_evaluations,
                    one_part.distance_evaluations);
        }
      }
    }
  }
}

/// A random audit fixture: original trajectories of 0-7 points, mostly on
/// a coarse lattice (so vertices repeat and distances tie), with signed
/// zeros and, in some fixtures, infinite endpoints; published points that
/// are original vertices (zero signs flipped at random), lattice points,
/// off-lattice points and, in some small fixtures, infinite or NaN
/// coordinates.
struct RandomFixture {
  Dataset original;
  Dataset published;
};

RandomFixture MakeRandomFixture(Rng& rng, size_t trajectories) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // An infinite or NaN query makes the mean inf or NaN, which would hide
  // every other point's distance, so large fixtures publish neither.
  const bool large = trajectories > 100;
  const bool with_inf = rng.UniformInt(uint64_t{3}) == 0;
  const bool with_inf_query = !large && rng.UniformInt(uint64_t{3}) == 0;
  const bool with_nan = !large && rng.UniformInt(uint64_t{3}) == 0;
  // Large fixtures draw mostly off the lattice, so boxes overlap and the
  // nearest segment often sits in a box that is not the nearest one.
  const uint64_t off_lattice = large ? 5 : 1;
  const auto coordinate = [&]() {
    const uint64_t kind = rng.UniformInt(uint64_t{8});
    if (kind < 2) return kind == 0 ? -0.0 : 0.0;
    if (kind < 2 + off_lattice) return rng.Uniform(-40.0, 40.0);
    return 2.5 * static_cast<double>(rng.UniformInt(-16, 16));
  };
  std::vector<std::vector<Point>> original(trajectories);
  std::vector<Point> vertices;
  for (std::vector<Point>& t : original) {
    const uint64_t points = rng.UniformInt(uint64_t{8});
    for (uint64_t i = 0; i < points; ++i) {
      Point p{coordinate(), coordinate()};
      if (with_inf && rng.UniformInt(uint64_t{10}) == 0) {
        (rng.UniformInt(uint64_t{2}) == 0 ? p.x : p.y) =
            rng.UniformInt(uint64_t{2}) == 0 ? inf : -inf;
      }
      t.push_back(p);
      vertices.push_back(p);
    }
  }
  std::vector<std::vector<Point>> published(
      std::max<size_t>(1, rng.UniformInt(uint64_t{trajectories + 2})));
  for (std::vector<Point>& t : published) {
    const uint64_t points = 1 + rng.UniformInt(uint64_t{8});
    for (uint64_t i = 0; i < points; ++i) {
      Point p{coordinate(), coordinate()};
      const uint64_t kind = rng.UniformInt(uint64_t{12});
      if (kind < 6 && !vertices.empty()) {
        p = vertices[rng.UniformInt(uint64_t{vertices.size()})];
        if (p.x == 0.0 && rng.UniformInt(uint64_t{2}) == 0) p.x = -p.x;
        if (p.y == 0.0 && rng.UniformInt(uint64_t{2}) == 0) p.y = -p.y;
      } else if (kind == 6 && with_inf_query) {
        p.x = rng.UniformInt(uint64_t{2}) == 0 ? inf : -inf;
      } else if (kind == 7 && with_nan) {
        (rng.UniformInt(uint64_t{2}) == 0 ? p.x : p.y) = nan;
      }
      t.push_back(p);
    }
  }
  return {PointDataset(original), PointDataset(published)};
}

TEST(WindowAuditTest, RandomPartedFixturesMatchBruteForce) {
  // Every part count from 1 to 5 must report brute force's displacement
  // bit for bit, and one part's points and vertex hits, with and without
  // a pool. The 300-trajectory fixtures give each part a tree several
  // box levels deep.
  Rng rng(2027);
  WorkStealingPool four(4);
  for (int fixture = 0; fixture < 60; ++fixture) {
    const size_t trajectories = fixture % 10 == 9 ? 300 : 1 + fixture % 9;
    const RandomFixture f = MakeRandomFixture(rng, trajectories);
    bool any_segment = false;
    for (const Trajectory& t : f.original.trajectories()) {
      any_segment = any_segment || t.NumSegments() > 0;
    }
    if (!any_segment) continue;
    for (const int ranges : {1, 3, 8}) {
      WindowAuditConfig config;
      config.enabled = true;
      config.ranges = ranges;
      const ReferenceAudit want =
          BruteForceAudit(f.original, f.published, ranges);
      const WindowAuditReport one_part =
          RunWindowAudit(f.original, f.published, config, nullptr);
      for (const int count : {1, 2, 3, 4, 5}) {
        const std::vector<WindowAuditPart> parts =
            BuildParts(f.original, count);
        for (WorkStealingPool* pool :
             {static_cast<WorkStealingPool*>(nullptr), &four}) {
          SCOPED_TRACE(::testing::Message()
                       << "fixture " << fixture << ", ranges " << ranges
                       << ", parts " << count << ", pool " << (pool != nullptr));
          const WindowAuditReport got =
              RunWindowAudit(parts, f.published, config, pool);
          ASSERT_TRUE(got.ran);
          EXPECT_EQ(got.points_audited, want.points);
          EXPECT_TRUE(SameBits(got.mean_displacement, want.mean))
              << got.mean_displacement << " vs " << want.mean;
          EXPECT_TRUE(SameBits(got.max_displacement, want.max))
              << got.max_displacement << " vs " << want.max;
          ExpectSameAggregates(got, one_part);
        }
      }
    }
  }
}

TEST(WindowAuditTest, PartedAuditSearchesNanPointsLikeOnePart) {
  // A NaN coordinate is searched once per point, in every part; its
  // distance (NaN) must reach the mean as it does with one index.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Dataset original = PartedOriginal();
  std::vector<std::vector<Point>> points = PartedPublished();
  points[0].push_back({nan, 0.0});
  points[4].push_back({0.0, nan});
  points[8].push_back({nan, 0.0});
  const Dataset published = PointDataset(points);
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport one_part =
      RunWindowAudit(original, published, config, nullptr);
  ASSERT_TRUE(one_part.ran);
  EXPECT_TRUE(std::isnan(one_part.mean_displacement));
  WorkStealingPool four(4);
  for (const int count : {1, 2, 4, 7}) {
    SCOPED_TRACE(count);
    const std::vector<WindowAuditPart> parts = BuildParts(original, count);
    ExpectSameAggregates(RunWindowAudit(parts, published, config, nullptr),
                         one_part);
    ExpectSameAggregates(RunWindowAudit(parts, published, config, &four),
                         one_part);
  }
}

TEST(WindowAuditTest, PartedReleaseAuditMatchesOnePart) {
  const Dataset input = SmallFleet(40, 43);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(5);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport one_part =
      RunWindowAudit(input, *published, config, nullptr);
  ExpectReportEquals(one_part, BruteForceAudit(input, *published, 8));
  WorkStealingPool four(4);
  for (const int count : {2, 4, 7}) {
    SCOPED_TRACE(count);
    const std::vector<WindowAuditPart> parts = BuildParts(input, count);
    ExpectSameAggregates(RunWindowAudit(parts, *published, config, &four),
                         one_part);
  }
}

TEST(WindowAuditTest, EachDistinctCoordinateIsSearchedOnce) {
  // Inserted points are snap-cell representatives, shared by many
  // trajectories: one search per distinct coordinate must evaluate fewer
  // distances than one search per point over the same Morton-built index.
  const Dataset input = SmallFleet(40, 43);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(5);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport audit =
      RunWindowAudit(input, *published, config, nullptr);
  ASSERT_TRUE(audit.ran);
  EXPECT_GT(audit.distance_evaluations, 0u);
  EXPECT_LT(audit.distance_evaluations,
            PerPointSearchEvals(input, *published));

  // A repeated off-vertex coordinate costs its search once.
  const Dataset original = PartedOriginal();
  const Dataset once = PointDataset({{kRepeat}});
  const Dataset nine = PointDataset(std::vector<std::vector<Point>>(
      9, std::vector<Point>{kRepeat}));
  EXPECT_EQ(RunWindowAudit(original, nine, config, nullptr)
                .distance_evaluations,
            RunWindowAudit(original, once, config, nullptr)
                .distance_evaluations);
}

TEST(BatchRunnerTest, BatchAuditEqualsOnePartAuditOfTheRelease) {
  // Each shard builds its own part; together they must report what one
  // part over the whole input reports on the merged release.
  const Dataset input = SmallFleet(24, 53);
  WorkStealingPool pool(4);
  for (const int shards : {1, 2, 3, 4}) {
    for (WorkStealingPool* p : {static_cast<WorkStealingPool*>(nullptr),
                                &pool}) {
      SCOPED_TRACE(::testing::Message() << "shards " << shards << ", pool "
                                        << (p == nullptr ? 0 : p->num_workers()));
      BatchRunnerConfig config;
      config.pipeline = SmallPipeline();
      config.shards = shards;
      config.pool = p;
      config.audit.enabled = true;
      BatchRunner runner(config);
      Rng rng(11);
      auto out = runner.Anonymize(input, rng);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ExpectSameAggregates(runner.report().audit,
                           RunWindowAudit(input, *out, config.audit, p));
    }
  }
}

TEST(BatchRunnerTest, AuditReportFlowsThroughBatchReport) {
  const Dataset input = SmallFleet(12, 37);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 2;
  config.audit.enabled = true;
  BatchRunner runner(config);
  Rng rng(3);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(runner.report().audit.ran);
  EXPECT_GT(runner.report().audit.points_audited, 0u);
}

TEST(BatchRunnerTest, NameReflectsVariantAndShardCount) {
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 8;
  EXPECT_EQ(BatchRunner(config).name(), "GL[batch x8]");
  config.pipeline.epsilon_local = 0.0;
  config.shards = 2;
  EXPECT_EQ(BatchRunner(config).name(), "PureG[batch x2]");
}

}  // namespace
}  // namespace frt
