// One release per input, whatever the kNN strategy.
//
// The five search strategies of paper Fig. 5 answer the same query: a kNN
// result is a pure function of the indexed segment set, with ties broken
// by (dist², handle) (src/index/README.md). So the whole pipeline must
// publish bit-identical datasets under every strategy — single-shot and
// through the sharded BatchRunner with the audit on and a shared pool.
// The input is raw synthetic taxis: consecutive segments share vertices,
// so exact distance ties are common, and the global-edit index is
// bulk-built in Morton order rather than in input order.

#include <gtest/gtest.h>

#include <string>
#include <utility>

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

}  // namespace
}  // namespace frt
