// Tests for core/modifier: intra-trajectory (Def. 9/10) and
// inter-trajectory (Def. 7/8) modification correctness — the perturbed
// frequency distributions must hold exactly on the modified data, with
// minimal utility loss, under every search strategy.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/modifier.h"
#include "traj/quantizer.h"

namespace frt {
namespace {

constexpr double kSize = 2000.0;

// 1 + ceil(log4(segments / 32)), at least 1, at most the cap: one level
// more each time the segment count passes 32 * 4^k.
TEST(LocalIndexLevelsTest, OneLevelPerQuadruplingPast32SegmentsUpToTheCap) {
  EXPECT_EQ(LocalIndexLevels(0, 10), 1);
  EXPECT_EQ(LocalIndexLevels(1, 10), 1);
  EXPECT_EQ(LocalIndexLevels(32, 10), 1);
  EXPECT_EQ(LocalIndexLevels(33, 10), 2);
  EXPECT_EQ(LocalIndexLevels(80, 10), 2);
  EXPECT_EQ(LocalIndexLevels(128, 10), 2);
  EXPECT_EQ(LocalIndexLevels(129, 10), 3);
  EXPECT_EQ(LocalIndexLevels(512, 10), 3);
  EXPECT_EQ(LocalIndexLevels(513, 10), 4);
  EXPECT_EQ(LocalIndexLevels(1800, 10), 4);
  EXPECT_EQ(LocalIndexLevels(2048, 10), 4);
  EXPECT_EQ(LocalIndexLevels(2049, 10), 5);
  EXPECT_EQ(LocalIndexLevels(size_t{1} << 40, 10), 10);
  EXPECT_EQ(LocalIndexLevels(2049, 3), 3);
  EXPECT_EQ(LocalIndexLevels(2049, 1), 1);
  EXPECT_EQ(LocalIndexLevels(2049, 0), 1);
}

class IntraModifierTest : public ::testing::TestWithParam<SearchStrategy> {
 protected:
  IntraModifierTest() : quantizer_(BBox::Of({0, 0}, {kSize, kSize}), 11) {}

  Quantizer quantizer_;
};

TEST_P(IntraModifierTest, InsertionRaisesFrequencyExactly) {
  Trajectory t(1);
  for (int i = 0; i < 10; ++i) t.Append(Point{i * 150.0, 0.0}, i * 60);
  quantizer_.RegisterPoint({700, 300});
  const LocationKey q_key = quantizer_.KeyOf({700, 300});

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{q_key, +3}}, &stats).ok());

  const Trajectory out = et.Materialize();
  EXPECT_EQ(out.size(), 13u);
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).at(q_key), 3);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.deletions, 0u);
  // Loss = sum of distances from q=(700,300) to its 3 nearest segments on
  // y=0: the perpendicular hit on [600,750] plus the two clamped endpoint
  // distances.
  const double expected = 300.0 + std::sqrt(300.0 * 300 + 50.0 * 50) +
                          std::sqrt(300.0 * 300 + 100.0 * 100);
  EXPECT_NEAR(stats.utility_loss, expected, 1e-6);
}

TEST_P(IntraModifierTest, DeletionLowersFrequencyExactly) {
  Trajectory t(1);
  t.Append({0, 0}, 0);
  for (int i = 0; i < 4; ++i) t.Append(Point{500, 500}, 60 + i);  // dwell x4
  t.Append({1000, 1000}, 300);
  const LocationKey key = quantizer_.KeyOf({500, 500});

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{key, -2}}, &stats).ok());

  const Trajectory out = et.Materialize();
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).at(key), 2);
  EXPECT_EQ(stats.deletions, 2u);
  // Deleting interior dwell repeats reconnects identical points: zero loss.
  EXPECT_NEAR(stats.utility_loss, 0.0, 1.0);
}

TEST_P(IntraModifierTest, DeleteAllOccurrences) {
  Trajectory t(1);
  t.Append({0, 0}, 0);
  t.Append({500, 500}, 60);
  t.Append({800, 0}, 120);
  t.Append({500, 500}, 180);
  t.Append({1500, 100}, 240);
  const LocationKey key = quantizer_.KeyOf({500, 500});
  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  // Request more deletions than occurrences: clamp to "all gone".
  ASSERT_TRUE(modifier.Apply(&et, {{key, -10}}, &stats).ok());
  const Trajectory out = et.Materialize();
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).count(key), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST_P(IntraModifierTest, MixedDeltasAllSatisfied) {
  Trajectory t(1);
  for (int i = 0; i < 20; ++i) {
    t.Append(Point{100.0 * (i % 7), 100.0 * (i / 7)}, i * 60);
  }
  quantizer_.RegisterDataset([&] {
    Dataset d;
    (void)d.Add(t);
    return d;
  }());
  const PointFrequency before = ComputePointFrequency(t, quantizer_);
  // Take three existing keys: raise one, lower one, keep one.
  auto it = before.begin();
  const LocationKey raise = (it++)->first;
  const LocationKey lower = (it++)->first;
  FrequencyDelta delta{{raise, +2}, {lower, -1}};

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, delta, &stats).ok());
  const PointFrequency after =
      ComputePointFrequency(et.Materialize(), quantizer_);
  EXPECT_EQ(after.at(raise), before.at(raise) + 2);
  const int64_t lower_after =
      after.count(lower) > 0 ? after.at(lower) : 0;
  EXPECT_EQ(lower_after, before.at(lower) - 1);
}

TEST_P(IntraModifierTest, InsertionPicksNearestSegment) {
  // One segment is clearly closest to q; the first insertion must use it.
  Trajectory t(1);
  t.Append({0, 0}, 0);
  t.Append({400, 0}, 60);
  t.Append({400, 1000}, 120);
  quantizer_.RegisterPoint({200, 50});
  const LocationKey key = quantizer_.KeyOf({200, 50});
  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{key, +1}}, &stats).ok());
  const Trajectory out = et.Materialize();
  ASSERT_EQ(out.size(), 4u);
  // Inserted between (0,0) and (400,0).
  EXPECT_EQ(quantizer_.KeyOf(out[1].p), key);
  EXPECT_NEAR(stats.utility_loss, 50.0, 1.0);
}

TEST_P(IntraModifierTest, TinyTrajectoriesHandled) {
  quantizer_.RegisterPoint({100, 100});
  const LocationKey key = quantizer_.KeyOf({100, 100});
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  // Empty trajectory: insertions append.
  EditableTrajectory empty(Trajectory(1));
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&empty, {{key, +2}}, &stats).ok());
  EXPECT_EQ(empty.NumPoints(), 2u);
  // Single point: insertion appends after it.
  Trajectory single(2);
  single.Append({500, 500}, 0);
  EditableTrajectory et(single);
  ASSERT_TRUE(modifier.Apply(&et, {{key, +1}}, &stats).ok());
  EXPECT_EQ(et.NumPoints(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, IntraModifierTest,
    ::testing::Values(SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
                      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
                      SearchStrategy::kBottomUpDown),
    [](const ::testing::TestParamInfo<SearchStrategy>& info) {
      std::string name(SearchStrategyName(info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

// ---------------- inter-trajectory ----------------

class InterModifierTest : public ::testing::TestWithParam<SearchStrategy> {
 protected:
  InterModifierTest()
      : quantizer_(BBox::Of({0, 0}, {kSize, kSize}), 11),
        grid_(BBox::Of({-10, -10}, {kSize + 10, kSize + 10}), 10) {}

  // Five horizontal trajectories at different heights; the key point sits
  // at (500, 0) on trajectory 0 only.
  std::vector<EditableTrajectory> MakeWorld() {
    std::vector<EditableTrajectory> world;
    for (int i = 0; i < 5; ++i) {
      Trajectory t(i);
      for (int j = 0; j < 6; ++j) {
        t.Append(Point{j * 300.0, i * 400.0}, j * 60);
      }
      world.emplace_back(t);
    }
    return world;
  }

  TrajectoryFrequency CurrentTf(const std::vector<EditableTrajectory>& w) {
    Dataset d;
    for (const auto& et : w) (void)d.Add(et.Materialize());
    return ComputeTrajectoryFrequency(d, quantizer_);
  }

  Quantizer quantizer_;
  GridSpec grid_;
};

TEST_P(InterModifierTest, TfIncreaseInsertsIntoNearestTrajectories) {
  auto world = MakeWorld();
  quantizer_.RegisterPoint({600, 0});  // an actual point of trajectory 0
  const LocationKey key = quantizer_.KeyOf({600, 0});
  ASSERT_EQ(CurrentTf(world)[key], 1);  // only trajectory 0

  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, +2}}, &stats).ok());
  EXPECT_EQ(CurrentTf(world)[key], 3);
  EXPECT_EQ(stats.insertions, 2u);
  // The nearest non-containing trajectories are rows 1 and 2 (y=400, 800):
  // each insertion costs the vertical distance.
  EXPECT_NEAR(stats.utility_loss, 400.0 + 800.0, 1e-6);
  // Trajectory 0 must not receive a second copy.
  EXPECT_EQ(ComputePointFrequency(world[0].Materialize(), quantizer_)
                .at(key),
            1);
}

TEST_P(InterModifierTest, TfDecreaseDeletesCompletely) {
  auto world = MakeWorld();
  // Plant the key on three trajectories with different deletion costs.
  const Point q{1000, 123};
  quantizer_.RegisterPoint(q);
  const LocationKey key = quantizer_.KeyOf(q);
  // Traj 0: cheap (collinear-ish dwell); traj 1 and 2: offset points.
  {
    auto n = world[0].InsertInto(world[0].Head(), q);
    ASSERT_TRUE(n.ok());
  }
  {
    auto n = world[1].InsertInto(world[1].Head(), q);
    ASSERT_TRUE(n.ok());
    auto n2 = world[2].InsertInto(world[2].Head(), q);
    ASSERT_TRUE(n2.ok());
  }
  ASSERT_EQ(CurrentTf(world)[key], 3);

  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, -2}}, &stats).ok());
  EXPECT_EQ(CurrentTf(world)[key], 1);
  EXPECT_EQ(stats.deletions, 2u);
}

TEST_P(InterModifierTest, MultipleKeysProcessedIndependently) {
  auto world = MakeWorld();
  quantizer_.RegisterPoint({300, 0});
  quantizer_.RegisterPoint({300, 1600});
  const LocationKey a = quantizer_.KeyOf({300, 0});      // on traj 0 only
  const LocationKey b = quantizer_.KeyOf({300, 1600});   // on traj 4 only
  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{a, +1}, {b, -1}}, &stats).ok());
  const auto tf = CurrentTf(world);
  EXPECT_EQ(tf.at(a), 2);
  EXPECT_EQ(tf.count(b), 0u);
}

TEST_P(InterModifierTest, InsertShortfallWhenAllContainPoint) {
  auto world = MakeWorld();
  // Put the key on every trajectory; then ask for more.
  const Point q{700, 50};
  quantizer_.RegisterPoint(q);
  const LocationKey key = quantizer_.KeyOf(q);
  for (auto& et : world) {
    ASSERT_TRUE(et.InsertInto(et.Head(), q).ok());
  }
  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, +3}}, &stats).ok());
  // No eligible trajectory: TF stays |D| (the Round clamp in Algorithm 1
  // makes this unreachable in the pipeline, but the modifier must be safe).
  EXPECT_EQ(CurrentTf(world)[key], 5);
  EXPECT_EQ(stats.insertions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, InterModifierTest,
    ::testing::Values(SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
                      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
                      SearchStrategy::kBottomUpDown),
    [](const ::testing::TestParamInfo<SearchStrategy>& info) {
      std::string name(SearchStrategyName(info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

}  // namespace
}  // namespace frt
