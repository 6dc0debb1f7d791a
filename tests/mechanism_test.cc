// Tests for the randomization mechanisms (Algorithms 1 and 2) and the
// FrequencyRandomizer pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "core/global_mechanism.h"
#include "core/local_mechanism.h"
#include "core/pipeline.h"
#include "synth/workload.h"

namespace frt {
namespace {

// Small but realistic world shared by the mechanism tests.
class MechanismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig wcfg;
    wcfg.num_taxis = 15;
    wcfg.target_points = 120;
    RoadGenConfig rcfg;
    rcfg.cols = 10;
    rcfg.rows = 10;
    auto w = GenerateTaxiWorkload(wcfg, rcfg, 7);
    ASSERT_TRUE(w.ok());
    workload_ = new Workload(std::move(*w));

    BBox region = workload_->dataset.Bounds();
    const double pad = 0.01 * std::max(region.Width(), region.Height());
    region.min_x -= pad;
    region.min_y -= pad;
    region.max_x += pad;
    region.max_y += pad;
    quantizer_ = new Quantizer(region, 11);
    quantizer_->RegisterDataset(workload_->dataset);
    SignatureExtractor extractor(quantizer_, 5);
    auto sig = extractor.Extract(workload_->dataset);
    ASSERT_TRUE(sig.ok());
    signatures_ = new SignatureSet(std::move(*sig));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete quantizer_;
    delete signatures_;
  }

  static Workload* workload_;
  static Quantizer* quantizer_;
  static SignatureSet* signatures_;
};

Workload* MechanismTest::workload_ = nullptr;
Quantizer* MechanismTest::quantizer_ = nullptr;
SignatureSet* MechanismTest::signatures_ = nullptr;

TEST_F(MechanismTest, LocalSelectPointsPrefersOwnSignature) {
  LocalMechanismConfig cfg;
  LocalMechanism mech(quantizer_, cfg);
  // One Selection reused across trajectories, as Apply reuses it, must
  // select what a fresh one selects, with the same draws.
  LocalMechanism::Selection reused;
  Rng rng(1);
  Rng fresh_rng(1);
  for (size_t t = 0; t < 3; ++t) {
    SCOPED_TRACE(t);
    const PointFrequency pf =
        ComputePointFrequency(workload_->dataset[t], *quantizer_);
    const std::vector<WeightedLocation>& own = signatures_->per_traj[t];
    mech.SelectPoints(own, *signatures_, pf, rng, &reused);
    LocalMechanism::Selection fresh;
    mech.SelectPoints(own, *signatures_, pf, fresh_rng, &fresh);
    const std::vector<LocationKey>& selected = reused.selected;
    EXPECT_EQ(selected, fresh.selected);
    ASSERT_GE(selected.size(), own.size());
    EXPECT_LE(selected.size(), 2u * signatures_->m);
    for (size_t i = 0; i < own.size(); ++i) {
      EXPECT_EQ(selected[i], own[i].key)
          << "own signature must come first, rank " << i;
    }
    // No duplicates.
    std::unordered_set<LocationKey> unique(selected.begin(), selected.end());
    EXPECT_EQ(unique.size(), selected.size());
  }
}

TEST_F(MechanismTest, LocalMechanismReducesSignatureFrequencies) {
  LocalMechanismConfig cfg;
  cfg.epsilon = 1.0;
  LocalMechanism mech(quantizer_, cfg);
  Rng rng(2);
  PrivacyAccountant accountant;
  LocalReport report;
  auto out = mech.Apply(workload_->dataset, *signatures_, rng, &accountant,
                        &report);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(accountant.spent(), 1.0);
  EXPECT_EQ(report.trajectories_processed, workload_->dataset.size());

  // Stage-1 uses Lap(-f_k, 1/eps): across users, the total frequency of
  // top-signature locations must drop sharply.
  int64_t before = 0;
  int64_t after = 0;
  for (size_t i = 0; i < workload_->dataset.size(); ++i) {
    const PointFrequency pf_before =
        ComputePointFrequency(workload_->dataset[i], *quantizer_);
    const PointFrequency pf_after =
        ComputePointFrequency((*out)[i], *quantizer_);
    for (const auto& wl : signatures_->per_traj[i]) {
      before += wl.pf;
      auto it = pf_after.find(wl.key);
      after += (it == pf_after.end()) ? 0 : it->second;
      (void)pf_before;
    }
  }
  EXPECT_LT(after, before / 4) << "signature PF should collapse";
}

TEST_F(MechanismTest, LocalStage2KeepsCardinalityStable) {
  LocalMechanismConfig cfg;
  cfg.epsilon = 1.0;
  LocalMechanism mech(quantizer_, cfg);
  Rng rng(3);
  LocalReport report;
  auto out = mech.Apply(workload_->dataset, *signatures_, rng, nullptr,
                        &report);
  ASSERT_TRUE(out.ok());
  const double before =
      static_cast<double>(workload_->dataset.TotalPoints());
  const double after = static_cast<double>(out->TotalPoints());
  // Without Stage-2 the dataset would shrink by the whole signature mass
  // (tested in the ablation bench); with it, the drift stays moderate.
  EXPECT_GT(after, 0.75 * before);
  EXPECT_LT(after, 1.25 * before);
}

TEST_F(MechanismTest, GlobalMechanismMovesTfTowardPerturbed) {
  GlobalMechanismConfig cfg;
  cfg.epsilon = 1.0;
  GlobalMechanism mech(quantizer_, cfg);
  Rng rng(4);
  PrivacyAccountant accountant;
  GlobalReport report;
  auto out = mech.Apply(workload_->dataset, *signatures_, rng, &accountant,
                        &report);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(accountant.spent(), 1.0);
  EXPECT_EQ(report.points_perturbed, signatures_->candidate_set.size());
  EXPECT_EQ(out->size(), workload_->dataset.size());

  // The (integer) TF changes reported must be reflected in the output: the
  // total |TF' - TF| across P should be close to the reported noise mass
  // (insert shortfall can only reduce it).
  const TrajectoryFrequency tf_before =
      ComputeTrajectoryFrequency(workload_->dataset, *quantizer_);
  const TrajectoryFrequency tf_after =
      ComputeTrajectoryFrequency(*out, *quantizer_);
  int64_t achieved = 0;
  for (const LocationKey key : signatures_->candidate_set) {
    const int64_t b = tf_before.count(key) ? tf_before.at(key) : 0;
    const int64_t a = tf_after.count(key) ? tf_after.at(key) : 0;
    achieved += std::llabs(a - b);
  }
  EXPECT_GT(achieved, 0);
  EXPECT_LE(achieved, report.total_abs_tf_change);
  EXPECT_GE(achieved, report.total_abs_tf_change / 2);
}

TEST_F(MechanismTest, PipelineVariantsReportCorrectBudget) {
  Rng rng(5);
  {
    FrequencyRandomizerConfig cfg;
    cfg.epsilon_global = 0.0;
    cfg.epsilon_local = 0.7;
    cfg.m = 5;
    FrequencyRandomizer pure_l(cfg);
    EXPECT_EQ(pure_l.name(), "PureL");
    auto out = pure_l.Anonymize(workload_->dataset, rng);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(pure_l.report().epsilon_spent, 0.7);
    EXPECT_EQ(pure_l.report().global.points_perturbed, 0u);
  }
  {
    FrequencyRandomizerConfig cfg;
    cfg.epsilon_global = 0.4;
    cfg.epsilon_local = 0.0;
    cfg.m = 5;
    FrequencyRandomizer pure_g(cfg);
    EXPECT_EQ(pure_g.name(), "PureG");
    auto out = pure_g.Anonymize(workload_->dataset, rng);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(pure_g.report().epsilon_spent, 0.4);
  }
  {
    FrequencyRandomizerConfig cfg;
    cfg.epsilon_global = 0.5;
    cfg.epsilon_local = 0.5;
    cfg.m = 5;
    FrequencyRandomizer gl(cfg);
    EXPECT_EQ(gl.name(), "GL");
    auto out = gl.Anonymize(workload_->dataset, rng);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(gl.report().epsilon_spent, 1.0);
    EXPECT_GT(gl.report().candidate_set_size, 0u);
  }
}

TEST_F(MechanismTest, PipelineDeterministicForSeed) {
  FrequencyRandomizerConfig cfg;
  cfg.m = 5;
  FrequencyRandomizer a(cfg);
  FrequencyRandomizer b(cfg);
  Rng rng_a(99);
  Rng rng_b(99);
  auto out_a = a.Anonymize(workload_->dataset, rng_a);
  auto out_b = b.Anonymize(workload_->dataset, rng_b);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  ASSERT_EQ(out_a->size(), out_b->size());
  for (size_t i = 0; i < out_a->size(); ++i) {
    ASSERT_EQ((*out_a)[i].size(), (*out_b)[i].size()) << "traj " << i;
    for (size_t p = 0; p < (*out_a)[i].size(); ++p) {
      ASSERT_EQ((*out_a)[i][p].p, (*out_b)[i][p].p);
    }
  }
}

TEST_F(MechanismTest, OrderIsExchangeable) {
  // Both orders must run cleanly and spend the same budget (outputs differ
  // randomly, which is fine).
  for (const MechanismOrder order :
       {MechanismOrder::kLocalFirst, MechanismOrder::kGlobalFirst}) {
    FrequencyRandomizerConfig cfg;
    cfg.order = order;
    cfg.m = 5;
    FrequencyRandomizer gl(cfg);
    Rng rng(11);
    auto out = gl.Anonymize(workload_->dataset, rng);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(gl.report().epsilon_spent, 1.0);
    EXPECT_EQ(out->size(), workload_->dataset.size());
  }
}

TEST_F(MechanismTest, HigherEpsilonInjectsLessNoise) {
  auto total_change = [&](double eps) {
    FrequencyRandomizerConfig cfg;
    cfg.epsilon_global = 0.0;
    cfg.epsilon_local = eps;
    cfg.m = 5;
    FrequencyRandomizer r(cfg);
    Rng rng(123);
    auto out = r.Anonymize(workload_->dataset, rng);
    EXPECT_TRUE(out.ok());
    return r.report().local.total_abs_frequency_change;
  };
  const int64_t noisy = total_change(0.1);
  const int64_t quiet = total_change(10.0);
  EXPECT_GT(noisy, quiet);
}

TEST_F(MechanismTest, RejectsEmptyDataset) {
  FrequencyRandomizer r(FrequencyRandomizerConfig{});
  Rng rng(1);
  EXPECT_FALSE(r.Anonymize(Dataset{}, rng).ok());
}

}  // namespace
}  // namespace frt
