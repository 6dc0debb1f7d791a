// One release per input, whatever the kNN strategy.
//
// The five search strategies of paper Fig. 5 answer the same query: a kNN
// result is a pure function of the indexed segment set, with ties broken
// by (dist², handle) (src/index/README.md). So the whole pipeline must
// publish bit-identical datasets under every strategy — single-shot and
// through the sharded BatchRunner with the audit on and a shared pool.
// The input is raw synthetic taxis: consecutive segments share vertices,
// so exact distance ties are common, and the global-edit index is
// bulk-built in Morton order rather than in input order. The local stage
// is also checked alone on trajectories of 2 to 2049 segments, whose
// per-trajectory grids are 1 to 5 levels deep.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "core/local_mechanism.h"
#include "core/pipeline.h"
#include "runtime/batch_runner.h"
#include "runtime/work_stealing_pool.h"
#include "synth/workload.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::DatasetsEqual;

constexpr SearchStrategy kStrategies[] = {
    SearchStrategy::kBottomUpDown, SearchStrategy::kBottomUp,
    SearchStrategy::kTopDown, SearchStrategy::kUniformGrid,
    SearchStrategy::kLinear};

/// 120 raw taxis as the workload generator emits them (default road grid,
/// about 80 points each).
Dataset RawTaxis() {
  WorkloadConfig config;
  config.num_taxis = 120;
  config.target_points = 60;
  auto workload = GenerateTaxiWorkload(config, RoadGenConfig{}, 3);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload.ok() ? std::move(workload->dataset) : Dataset();
}

FrequencyRandomizerConfig Pipeline(SearchStrategy strategy) {
  FrequencyRandomizerConfig config;
  config.strategy = strategy;
  return config;
}

std::string Name(SearchStrategy s) {
  return std::string(SearchStrategyName(s));
}

TEST(StrategyReleaseTest, SingleShotReleaseIsTheSameForEveryStrategy) {
  const Dataset input = RawTaxis();
  ASSERT_GE(input.TotalPoints(), 5000u);
  Dataset reference;
  ModifierStats reference_global;
  for (const SearchStrategy s : kStrategies) {
    FrequencyRandomizer randomizer(Pipeline(s));
    Rng rng(42);
    auto published = randomizer.Anonymize(input, rng);
    ASSERT_TRUE(published.ok()) << Name(s) << ": "
                                << published.status().ToString();
    const ModifierStats& global = randomizer.report().global.edits;
    EXPECT_GT(global.insertions, 0u) << Name(s);
    if (s == kStrategies[0]) {
      reference = std::move(*published);
      reference_global = global;
      continue;
    }
    EXPECT_TRUE(DatasetsEqual(*published, reference))
        << Name(s) << " publishes a different release than "
        << Name(kStrategies[0]);
    EXPECT_EQ(global.insertions, reference_global.insertions) << Name(s);
    EXPECT_EQ(global.deletions, reference_global.deletions) << Name(s);
    EXPECT_EQ(global.knn_searches, reference_global.knn_searches) << Name(s);
  }
}

TEST(StrategyReleaseTest, ShardedAuditedReleaseIsTheSameForEveryStrategy) {
  const Dataset input = RawTaxis();
  WorkStealingPool pool(2);
  Dataset reference;
  WindowAuditReport reference_audit;
  for (const SearchStrategy s : kStrategies) {
    BatchRunnerConfig config;
    config.pipeline = Pipeline(s);
    config.shards = 2;
    config.pool = &pool;
    config.audit.enabled = true;
    config.audit.strategy = s;
    BatchRunner runner(config);
    Rng rng(42);
    auto published = runner.Anonymize(input, rng);
    ASSERT_TRUE(published.ok()) << Name(s) << ": "
                                << published.status().ToString();
    const WindowAuditReport& audit = runner.report().audit;
    ASSERT_TRUE(audit.ran) << Name(s);
    if (s == kStrategies[0]) {
      reference = std::move(*published);
      reference_audit = audit;
      continue;
    }
    EXPECT_TRUE(DatasetsEqual(*published, reference))
        << Name(s) << " publishes a different release than "
        << Name(kStrategies[0]);
    EXPECT_EQ(audit.points_audited, reference_audit.points_audited)
        << Name(s);
    EXPECT_EQ(audit.mean_displacement, reference_audit.mean_displacement)
        << Name(s);
    EXPECT_EQ(audit.max_displacement, reference_audit.max_displacement)
        << Name(s);
  }
}

/// A lattice walk of `segments` segments: unit steps of 10 m or a dwell,
/// so locations repeat within and across trajectories and exact distance
/// ties are everywhere.
Trajectory LatticeWalk(TrajId id, size_t segments, Rng& rng) {
  Trajectory t(id);
  int64_t x = 40 + static_cast<int64_t>(rng.UniformInt(uint64_t{80}));
  int64_t y = 40 + static_cast<int64_t>(rng.UniformInt(uint64_t{80}));
  for (size_t i = 0; i <= segments; ++i) {
    t.Append(Point{10.0 * static_cast<double>(x),
                   10.0 * static_cast<double>(y)},
             static_cast<int64_t>(60 * i));
    switch (rng.UniformInt(uint64_t{5})) {
      case 0: x = std::min<int64_t>(x + 1, 159); break;
      case 1: x = std::max<int64_t>(x - 1, 0); break;
      case 2: y = std::min<int64_t>(y + 1, 159); break;
      case 3: y = std::max<int64_t>(y - 1, 0); break;
      default: break;  // dwell
    }
  }
  return t;
}

// The local stage sizes each trajectory's grid by its segment count
// (LocalIndexLevels). Trajectories on both sides of every step of that
// rule must publish under each strategy, and at any depth cap, what the
// linear scan publishes.
TEST(StrategyReleaseTest, LocalStageIsTheSameForEveryStrategyAtEveryDepth) {
  const size_t kSegments[] = {2,   30,  32,  33,   80,   128, 129,
                              500, 512, 513, 1800, 2048, 2049};
  Rng walk_rng(11);
  Dataset input;
  std::set<int> depths;
  for (size_t i = 0; i < std::size(kSegments); ++i) {
    ASSERT_TRUE(input.Add(LatticeWalk(static_cast<TrajId>(i), kSegments[i],
                                      walk_rng)).ok());
    depths.insert(LocalIndexLevels(kSegments[i], 10));
  }
  EXPECT_EQ(depths, (std::set<int>{1, 2, 3, 4, 5}));

  BBox region = input.Bounds();
  region.min_x -= 20;
  region.min_y -= 20;
  region.max_x += 20;
  region.max_y += 20;
  Quantizer quantizer(region, 11);
  quantizer.RegisterDataset(input);
  auto signatures = SignatureExtractor(&quantizer, 10).Extract(input);
  ASSERT_TRUE(signatures.ok()) << signatures.status().ToString();

  const auto run = [&](SearchStrategy s, int cap, LocalReport* report) {
    LocalMechanismConfig config;
    config.strategy = s;
    config.grid_levels = cap;
    Rng rng(42);
    auto out = LocalMechanism(&quantizer, config)
                   .Apply(input, *signatures, rng, nullptr, report);
    EXPECT_TRUE(out.ok()) << Name(s) << ": " << out.status().ToString();
    return out.ok() ? std::move(*out) : Dataset();
  };
  LocalReport reference_report;
  const Dataset reference = run(SearchStrategy::kLinear, 10, &reference_report);
  ASSERT_EQ(reference.size(), input.size());
  EXPECT_GT(reference_report.edits.insertions, 0u);
  EXPECT_GT(reference_report.edits.knn_searches, 0u);
  for (const int cap : {10, 3, 1}) {
    for (const SearchStrategy s : kStrategies) {
      LocalReport report;
      const Dataset published = run(s, cap, &report);
      ASSERT_EQ(published.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(published[i].points() == reference[i].points())
            << Name(s) << " cap " << cap << ": trajectory of "
            << kSegments[i] << " segments differs from linear's";
      }
      EXPECT_EQ(report.edits.insertions, reference_report.edits.insertions)
          << Name(s) << " cap " << cap;
      EXPECT_EQ(report.edits.deletions, reference_report.edits.deletions)
          << Name(s) << " cap " << cap;
      EXPECT_EQ(report.edits.utility_loss,
                reference_report.edits.utility_loss)
          << Name(s) << " cap " << cap;
    }
  }
}

}  // namespace
}  // namespace frt
