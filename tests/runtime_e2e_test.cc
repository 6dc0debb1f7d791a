// Deterministic end-to-end regression: a fixed-seed synthetic workload
// through the GL pipeline and the batch runtime. Guards the properties every
// scaling PR must preserve — trajectory-count stability, exact epsilon
// accounting, run-to-run determinism, and single-shot/batch equivalence.

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.h"
#include "runtime/batch_runner.h"
#include "synth/workload.h"
#include "testing_util.h"

namespace frt {
namespace {

constexpr uint64_t kWorkloadSeed = 424242;
constexpr uint64_t kPipelineSeed = 77;

class RuntimeE2ETest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(frt::testing::TaxiFleet(
        /*taxis=*/48, /*target_points=*/80, /*grid_cols_rows=*/14,
        kWorkloadSeed));
    ASSERT_FALSE(dataset_->empty());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static FrequencyRandomizerConfig PipelineConfig() {
    return frt::testing::SmallPipeline(/*m=*/8, /*epsilon_global=*/0.4,
                                       /*epsilon_local=*/0.6);
  }

  static const Dataset* dataset_;
};

const Dataset* RuntimeE2ETest::dataset_ = nullptr;

TEST_F(RuntimeE2ETest, WorkloadGenerationIsDeterministic) {
  const Dataset again =
      frt::testing::TaxiFleet(48, 80, 14, kWorkloadSeed);
  ASSERT_EQ(again.size(), dataset_->size());
  EXPECT_EQ(again.TotalPoints(), dataset_->TotalPoints());
  for (size_t i = 0; i < dataset_->size(); ++i) {
    EXPECT_EQ(again[i].points(), (*dataset_)[i].points());
  }
}

TEST_F(RuntimeE2ETest, GlPipelineIsStableAndAccountsExactly) {
  FrequencyRandomizer randomizer(PipelineConfig());
  Rng rng(kPipelineSeed);
  auto published = randomizer.Anonymize(*dataset_, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  // Record-level method: trajectory count and ids survive anonymization.
  ASSERT_EQ(published->size(), dataset_->size());
  for (size_t i = 0; i < dataset_->size(); ++i) {
    EXPECT_EQ((*published)[i].id(), (*dataset_)[i].id());
  }

  // Sequential composition spends exactly eps_G + eps_L (Theorem 1).
  EXPECT_DOUBLE_EQ(randomizer.report().epsilon_spent, 1.0);

  // The mechanisms actually perturbed something.
  const RandomizerReport& report = randomizer.report();
  EXPECT_GT(report.candidate_set_size, 0u);
  EXPECT_GT(report.local.edits.insertions + report.local.edits.deletions +
                report.global.edits.insertions +
                report.global.edits.deletions,
            0u);

  // Identical seed => bit-identical published dataset.
  FrequencyRandomizer repeat(PipelineConfig());
  Rng rng2(kPipelineSeed);
  auto published2 = repeat.Anonymize(*dataset_, rng2);
  ASSERT_TRUE(published2.ok());
  ASSERT_EQ(published2->size(), published->size());
  for (size_t i = 0; i < published->size(); ++i) {
    EXPECT_EQ((*published2)[i].points(), (*published)[i].points());
  }
  EXPECT_EQ(repeat.report().local.edits.insertions,
            report.local.edits.insertions);
  EXPECT_EQ(repeat.report().global.edits.deletions,
            report.global.edits.deletions);
}

TEST_F(RuntimeE2ETest, BatchRunnerMatchesConcatenatedShardOutputs) {
  // BatchRunner(K) output sizes must be concatenation-equivalent: the batch
  // output is exactly the per-shard single-shot outputs, appended in shard
  // order, so sizes (and points) agree shard by shard.
  const int kShards = 4;
  BatchRunnerConfig config;
  config.pipeline = PipelineConfig();
  config.shards = kShards;
  BatchRunner runner(config);
  Rng rng(kPipelineSeed);
  auto batched = runner.Anonymize(*dataset_, rng);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), dataset_->size());

  Rng master(kPipelineSeed);
  const auto plan = PlanShards(dataset_->size(), kShards);
  size_t batched_points = 0;
  size_t concatenated_points = 0;
  std::vector<Rng> streams;
  for (size_t i = 0; i < plan.size(); ++i) streams.push_back(master.Fork());
  for (size_t i = 0; i < plan.size(); ++i) {
    Dataset shard;
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      ASSERT_TRUE(shard.Add((*dataset_)[j]).ok());
    }
    FrequencyRandomizer pipeline(PipelineConfig());
    auto out = pipeline.Anonymize(shard, streams[i]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), plan[i].size());
    concatenated_points += out->TotalPoints();
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      batched_points += (*batched)[j].size();
      EXPECT_EQ((*batched)[j].size(), (*out)[j - plan[i].begin].size());
    }
  }
  EXPECT_EQ(batched->TotalPoints(), concatenated_points);
  EXPECT_EQ(batched_points, concatenated_points);

  // Epsilon accounting is identical to the single-shot run.
  EXPECT_DOUBLE_EQ(runner.report().epsilon_spent, 1.0);
  EXPECT_DOUBLE_EQ(runner.report().combined.epsilon_spent, 1.0);
}

TEST_F(RuntimeE2ETest, BatchDeterminismAcrossRuns) {
  auto run = []() {
    WorkStealingPool pool(2);
    BatchRunnerConfig config;
    config.pipeline = PipelineConfig();
    config.shards = 3;
    config.pool = &pool;
    BatchRunner runner(config);
    Rng rng(kPipelineSeed);
    auto out = runner.Anonymize(*dataset_, rng);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *std::move(out);
  };
  const Dataset a = run();
  const Dataset b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].points(), b[i].points());
  }
}

}  // namespace
}  // namespace frt
