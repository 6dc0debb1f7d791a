// Unit tests for runtime/batch_runner.h: shard semantics, determinism,
// merge order, report aggregation, and parallel-composition accounting.

#include "runtime/batch_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

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
/// every original segment, summed per range with the audit's fixed range
/// split and merged in range order, so RunWindowAudit must match it bit
/// for bit.
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
        double best = std::numeric_limits<double>::infinity();
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

/// Index only: a k=1 search for every published point over an
/// input-order build, summed in input order (the audit with one range).
ReferenceAudit IndexOnlyAudit(const Dataset& original,
                              const Dataset& published,
                              const WindowAuditConfig& config) {
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
  const auto index = MakeSegmentIndex(
      config.strategy, GridSpec(region, config.index_levels));
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
  config.threads = 2;
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
    BatchRunnerConfig config;
    config.pipeline = SmallPipeline();
    config.shards = 4;
    config.threads = threads;
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
    EXPECT_DOUBLE_EQ(runner.accountant().spent(), 1.0) << shards;
    EXPECT_EQ(runner.accountant().ledger().size(), 1u) << shards;
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

TEST(WindowAuditTest, MortonOrderedBuildMatchesInputOrderBuild) {
  // The audit stores its entries in Morton order of the segment
  // midpoints. Published points often sit exactly on an original vertex
  // that two consecutive segments share, so ties are real — but the audit
  // only sums k=1 distances, so the report must be bit-identical to one
  // over an index bulk-built in input order.
  const Dataset input = SmallFleet(40, 43);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(5);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  WindowAuditConfig config;
  config.enabled = true;
  config.ranges = 1;  // one range: the report sums points in input order
  const WindowAuditReport audit =
      RunWindowAudit(input, *published, config, nullptr);
  ASSERT_TRUE(audit.ran);

  std::vector<SegmentEntry> entries;
  BBox region = BBox::Empty();
  for (const Trajectory& t : input.trajectories()) {
    for (size_t i = 0; i < t.NumSegments(); ++i) {
      const Segment s = t.SegmentAt(i);
      entries.push_back(SegmentEntry{entries.size(), t.id(), s});
      region.Extend(s.a);
      region.Extend(s.b);
    }
  }
  const auto index = MakeSegmentIndex(
      config.strategy, GridSpec(region, config.index_levels));
  ASSERT_TRUE(index->Build(Span<const SegmentEntry>(entries)).ok());
  SearchContext ctx;
  SearchOptions options;
  options.k = 1;
  uint64_t points = 0;
  double sum = 0.0;
  double max = 0.0;
  for (const Trajectory& t : published->trajectories()) {
    for (const TimedPoint& tp : t.points()) {
      const Span<const Neighbor> hits = index->KNearest(tp.p, options, &ctx);
      ASSERT_EQ(hits.size(), 1u);
      ++points;
      sum += hits[0].dist;
      max = std::max(max, hits[0].dist);
    }
  }
  ASSERT_GT(points, 0u);
  EXPECT_EQ(audit.points_audited, points);
  EXPECT_EQ(audit.mean_displacement, sum / static_cast<double>(points));
  EXPECT_EQ(audit.max_displacement, max);
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
  // ~1e-14, not 0: an end vertex must go to the search.
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
    // (-0,-0)), (10,10) twice, (30,30), (0,5), (0,25), (-35.5,12.25).
    EXPECT_EQ(serial.vertex_hits, 8u);
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
  // is a segment start; the last ones are searched.
  const Dataset input = SmallFleet(8, 41);
  WindowAuditConfig config;
  config.enabled = true;
  const WindowAuditReport audit = RunWindowAudit(input, input, config,
                                                 nullptr);
  ExpectReportEquals(audit, BruteForceAudit(input, input, config.ranges));
  EXPECT_GE(audit.vertex_hits, audit.points_audited - input.size());
  EXPECT_LT(audit.vertex_hits, audit.points_audited);
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
  const ReferenceAudit index_only = IndexOnlyAudit(input, *published, config);
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
  // the search, whatever the search makes of it.
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
    const ReferenceAudit index_only =
        IndexOnlyAudit(original, published, config);
    ASSERT_TRUE(audit.ran);
    EXPECT_EQ(audit.vertex_hits, 1u);
    EXPECT_EQ(audit.points_audited, index_only.points);
    const auto same = [](double a, double b) {
      return (std::isnan(a) && std::isnan(b)) || a == b;
    };
    EXPECT_TRUE(same(audit.mean_displacement, index_only.mean))
        << audit.mean_displacement << " vs " << index_only.mean;
    EXPECT_TRUE(same(audit.max_displacement, index_only.max))
        << audit.max_displacement << " vs " << index_only.max;
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
