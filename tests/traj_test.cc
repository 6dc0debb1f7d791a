// Unit tests for src/traj: trajectory model, dataset, quantizer, CSV I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "traj/dataset.h"
#include "traj/io.h"
#include "traj/quantizer.h"
#include "traj/trajectory.h"

namespace frt {
namespace {

Trajectory MakeTraj(TrajId id, std::initializer_list<Point> pts) {
  Trajectory t(id);
  int64_t ts = 1000;
  for (const Point& p : pts) {
    t.Append(p, ts);
    ts += 60;
  }
  return t;
}

TEST(TrajectoryTest, BasicAccessors) {
  Trajectory t = MakeTraj(7, {{0, 0}, {3, 4}, {3, 10}});
  EXPECT_EQ(t.id(), 7);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.NumSegments(), 2u);
  EXPECT_DOUBLE_EQ(t.Length(), 11.0);
  EXPECT_EQ(t.SegmentAt(0).a, (Point{0, 0}));
  EXPECT_EQ(t.SegmentAt(1).b, (Point{3, 10}));
}

TEST(TrajectoryTest, EmptyAndSingle) {
  Trajectory e(1);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.NumSegments(), 0u);
  EXPECT_DOUBLE_EQ(e.Length(), 0.0);
  EXPECT_DOUBLE_EQ(e.Diameter(), 0.0);
  Trajectory s = MakeTraj(2, {{5, 5}});
  EXPECT_EQ(s.NumSegments(), 0u);
  EXPECT_DOUBLE_EQ(s.Diameter(), 0.0);
}

TEST(TrajectoryTest, DiameterExactSmall) {
  Trajectory t = MakeTraj(1, {{0, 0}, {1, 1}, {10, 0}, {2, 2}});
  EXPECT_DOUBLE_EQ(t.Diameter(), 10.0);
}

TEST(TrajectoryTest, DiameterLargeTrajectoryMatchesBruteForce) {
  Trajectory t(1);
  Rng rng(44);
  for (int i = 0; i < 500; ++i) {
    t.Append(Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i);
  }
  double brute = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    for (size_t j = i + 1; j < t.size(); ++j) {
      brute = std::max(brute, Distance(t[i].p, t[j].p));
    }
  }
  // The 8-direction extreme heuristic is near-exact for scattered points.
  EXPECT_NEAR(t.Diameter(), brute, brute * 0.02);
}

TEST(TrajectoryTest, BoundsCoverAllPoints) {
  Trajectory t = MakeTraj(1, {{-5, 2}, {8, -1}, {3, 9}});
  const BBox b = t.Bounds();
  EXPECT_DOUBLE_EQ(b.min_x, -5);
  EXPECT_DOUBLE_EQ(b.max_x, 8);
  EXPECT_DOUBLE_EQ(b.min_y, -1);
  EXPECT_DOUBLE_EQ(b.max_y, 9);
}

TEST(DatasetTest, AddAndLookup) {
  Dataset d;
  ASSERT_TRUE(d.Add(MakeTraj(10, {{0, 0}, {1, 1}})).ok());
  ASSERT_TRUE(d.Add(MakeTraj(20, {{2, 2}})).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(*d.IndexOf(20), 1u);
  EXPECT_FALSE(d.IndexOf(30).ok());
  EXPECT_EQ(d.TotalPoints(), 3u);
  EXPECT_DOUBLE_EQ(d.AvgLength(), 1.5);
}

TEST(DatasetTest, DuplicateIdRejected) {
  Dataset d;
  ASSERT_TRUE(d.Add(MakeTraj(1, {{0, 0}})).ok());
  EXPECT_EQ(d.Add(MakeTraj(1, {{1, 1}})).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatasetTest, CloneIsDeep) {
  Dataset d;
  ASSERT_TRUE(d.Add(MakeTraj(1, {{0, 0}, {1, 1}})).ok());
  Dataset c = d.Clone();
  c[0].mutable_points()[0].p = Point{99, 99};
  EXPECT_EQ(d[0][0].p, (Point{0, 0}));
}

// --- Quantizer ---

class QuantizerTest : public ::testing::Test {
 protected:
  Quantizer q_{BBox::Of({0, 0}, {1024, 1024}), 11};  // 1m cells
};

TEST_F(QuantizerTest, NearbyPointsShareKey) {
  // 1024 levels-1 => 1024x1024 cells over 1024m: 1m cells.
  EXPECT_EQ(q_.KeyOf({100.1, 200.2}), q_.KeyOf({100.4, 200.8}));
  EXPECT_NE(q_.KeyOf({100.1, 200.2}), q_.KeyOf({103.0, 200.2}));
}

TEST_F(QuantizerTest, RepresentativeIsCentroidOfObservations) {
  q_.RegisterPoint({100.2, 200.2});
  q_.RegisterPoint({100.8, 200.8});
  const Point rep = q_.PointOf(q_.KeyOf({100.5, 200.5}));
  EXPECT_NEAR(rep.x, 100.5, 1e-9);
  EXPECT_NEAR(rep.y, 200.5, 1e-9);
}

TEST_F(QuantizerTest, UnseenKeyFallsBackToCellCenter) {
  const LocationKey key = q_.KeyOf({500.3, 600.7});
  const Point rep = q_.PointOf(key);
  EXPECT_EQ(q_.KeyOf(rep), key);
}

TEST_F(QuantizerTest, RepresentativeStaysInCell) {
  q_.RegisterPoint({77.1, 33.9});
  q_.RegisterPoint({77.9, 33.1});
  const LocationKey key = q_.KeyOf({77.5, 33.5});
  EXPECT_EQ(q_.KeyOf(q_.PointOf(key)), key);
}

TEST_F(QuantizerTest, PointFrequencyCounts) {
  Trajectory t = MakeTraj(
      1, {{10.2, 10.2}, {50, 50}, {10.4, 10.4}, {10.3, 10.1}, {90, 90}});
  const PointFrequency pf = ComputePointFrequency(t, q_);
  EXPECT_EQ(pf.at(q_.KeyOf({10.3, 10.3})), 3);
  EXPECT_EQ(pf.at(q_.KeyOf({50, 50})), 1);
  EXPECT_EQ(pf.size(), 3u);
}

TEST_F(QuantizerTest, TrajectoryFrequencyCountsDistinctTrajectories) {
  Dataset d;
  ASSERT_TRUE(d.Add(MakeTraj(1, {{10, 10}, {10.2, 10.2}, {50, 50}})).ok());
  ASSERT_TRUE(d.Add(MakeTraj(2, {{10.1, 10.1}})).ok());
  ASSERT_TRUE(d.Add(MakeTraj(3, {{90, 90}})).ok());
  const TrajectoryFrequency tf = ComputeTrajectoryFrequency(d, q_);
  // Repeats within trajectory 1 count once toward TF.
  EXPECT_EQ(tf.at(q_.KeyOf({10, 10})), 2);
  EXPECT_EQ(tf.at(q_.KeyOf({50, 50})), 1);
  EXPECT_EQ(tf.at(q_.KeyOf({90, 90})), 1);
}

TEST_F(QuantizerTest, UnpackRoundTrip) {
  const LocationKey key = q_.KeyOf({123.4, 567.8});
  const CellCoord c = Quantizer::Unpack(key);
  EXPECT_EQ(c.Key(), key);
  EXPECT_EQ(c.level, q_.snap_level());
}

// --- CSV I/O ---

TEST(IoTest, SaveLoadRoundTrip) {
  Dataset d;
  ASSERT_TRUE(d.Add(MakeTraj(3, {{1.5, 2.25}, {3.125, 4}})).ok());
  ASSERT_TRUE(d.Add(MakeTraj(9, {{-7, 0.5}})).ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "frt_io_test.csv").string();
  ASSERT_TRUE(SaveDatasetCsv(d, path).ok());
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].id(), 3);
  EXPECT_EQ((*loaded)[0].size(), 2u);
  EXPECT_NEAR((*loaded)[0][1].p.x, 3.125, 1e-3);
  EXPECT_EQ((*loaded)[1].id(), 9);
  EXPECT_EQ((*loaded)[1][0].t, 1000);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadDatasetCsv("/nonexistent/frt.csv").status().IsIOError());
}

TEST(IoTest, MalformedLineIsError) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "frt_io_bad.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,2.0,3.0\n", f);  // missing the timestamp field
    std::fclose(f);
  }
  EXPECT_FALSE(LoadDatasetCsv(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, NonFiniteCoordinateIsError) {
  // strtod accepts all of these; the record parser must not.
  for (const char* bad : {"nan", "-inf", "infinity"}) {
    SCOPED_TRACE(bad);
    for (const bool in_x : {true, false}) {
      const std::string line = in_x ? std::string("7,") + bad + ",3.0,1"
                                    : std::string("7,2.0,") + bad + ",1";
      const auto record = ParseCsvRecord(line, 42);
      ASSERT_FALSE(record.ok()) << line;
      EXPECT_NE(record.status().message().find("line 42"), std::string::npos)
          << record.status().ToString();
    }
  }
}

TEST(IoTest, CommentsAndBlankLinesSkipped) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "frt_io_cmt.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# header\n\n5,1.0,2.0,100\n5,2.0,3.0,200\n", f);
    std::fclose(f);
  }
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace frt
