// Unit tests for stream/ingest.h: incremental assembly across chunk
// boundaries, comment/blank handling, trailing-newline variants, malformed
// input diagnostics, and equivalence with the one-shot LoadDatasetCsv path.

#include "stream/ingest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "traj/io.h"

namespace frt {
namespace {

constexpr char kThreeTrajectories[] =
    "# traj_id,x,y,t\n"
    "1,100.000,200.000,10\n"
    "1,110.000,210.000,20\n"
    "\n"
    "2,300.000,400.000,30\n"
    "# interleaved comment\n"
    "2,310.000,410.000,40\n"
    "2,320.000,420.000,50\n"
    "7,500.000,600.000,60\n";

std::vector<Trajectory> DrainAll(std::istream& in, size_t chunk_bytes) {
  TrajectoryReaderOptions options;
  options.chunk_bytes = chunk_bytes;
  TrajectoryReader reader(in, options);
  std::vector<Trajectory> out;
  for (;;) {
    auto next = reader.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    out.push_back(std::move(**next));
  }
  return out;
}

void ExpectThreeTrajectories(const std::vector<Trajectory>& trajs) {
  ASSERT_EQ(trajs.size(), 3u);
  EXPECT_EQ(trajs[0].id(), 1);
  ASSERT_EQ(trajs[0].size(), 2u);
  EXPECT_EQ(trajs[0][0].p, (Point{100.0, 200.0}));
  EXPECT_EQ(trajs[0][0].t, 10);
  EXPECT_EQ(trajs[0][1].t, 20);
  EXPECT_EQ(trajs[1].id(), 2);
  ASSERT_EQ(trajs[1].size(), 3u);
  EXPECT_EQ(trajs[1][2].p, (Point{320.0, 420.0}));
  EXPECT_EQ(trajs[2].id(), 7);
  ASSERT_EQ(trajs[2].size(), 1u);
  EXPECT_EQ(trajs[2][0].t, 60);
}

TEST(TrajectoryReaderTest, AssemblesConsecutiveLinesIntoTrajectories) {
  std::istringstream in(kThreeTrajectories);
  ExpectThreeTrajectories(DrainAll(in, 1 << 16));
}

TEST(TrajectoryReaderTest, ChunkBoundariesMidLineDoNotSplitRecords) {
  // chunk_bytes = 1 puts a refill boundary inside every line; a sweep of
  // small sizes also lands boundaries on '\n', ',' and digit positions.
  for (const size_t chunk : {1u, 2u, 3u, 5u, 7u, 16u, 64u}) {
    std::istringstream in(kThreeTrajectories);
    ExpectThreeTrajectories(DrainAll(in, chunk));
  }
}

TEST(TrajectoryReaderTest, MissingTrailingNewline) {
  std::string input(kThreeTrajectories);
  input.pop_back();  // drop final '\n'; the last line is unterminated
  for (const size_t chunk : {1u, 4u, 1u << 16}) {
    std::istringstream in(input);
    ExpectThreeTrajectories(DrainAll(in, chunk));
  }
}

TEST(TrajectoryReaderTest, CommentOnlyInputYieldsNothing) {
  std::istringstream in("# header\n# another\n\n   \n");
  EXPECT_TRUE(DrainAll(in, 3).empty());
}

TEST(TrajectoryReaderTest, EmptyInputYieldsNothing) {
  std::istringstream in("");
  TrajectoryReader reader(in);
  auto next = reader.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  // Terminal state is sticky.
  auto again = reader.Next();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->has_value());
}

TEST(TrajectoryReaderTest, CrLfLinesAreAccepted) {
  std::istringstream in("3,1.0,2.0,5\r\n3,2.0,3.0,6\r\n");
  const auto trajs = DrainAll(in, 4);
  ASSERT_EQ(trajs.size(), 1u);
  EXPECT_EQ(trajs[0].id(), 3);
  EXPECT_EQ(trajs[0].size(), 2u);
}

TEST(TrajectoryReaderTest, MalformedLineReportsLineNumber) {
  std::istringstream in("1,10.0,20.0,1\n1,oops,20.0,2\n");
  TrajectoryReader reader(in);
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsInvalidArgument() || next.status().IsIOError())
      << next.status().ToString();
  // Errors are sticky: the reader does not resynchronize mid-stream.
  auto again = reader.Next();
  EXPECT_FALSE(again.ok());
}

TEST(TrajectoryReaderTest, WrongFieldCountNamesTheLine) {
  std::istringstream in("1,10.0,20.0,1\n1,10.0\n");
  TrajectoryReader reader(in);
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("line 2"), std::string::npos)
      << next.status().ToString();
}

TEST(TrajectoryReaderTest, NonFiniteCoordinateNamesTheLine) {
  // strtod parses all of these; a non-finite point must not reach a
  // window, where it would poison the grid region of every trajectory.
  for (const char* bad : {"1,nan,20.0,2", "1,10.0,-inf,2",
                          "1,infinity,20.0,2", "1,10.0,NAN,2"}) {
    SCOPED_TRACE(bad);
    std::istringstream in(std::string("1,10.0,20.0,1\n") + bad +
                          "\n2,1.0,2.0,3\n");
    TrajectoryReader reader(in);
    auto next = reader.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_NE(next.status().message().find("line 2"), std::string::npos)
        << next.status().ToString();
    EXPECT_NE(next.status().message().find("non-finite"), std::string::npos)
        << next.status().ToString();
  }
}

TEST(TrajectoryReaderTest, CountersTrackProgress) {
  std::istringstream in(kThreeTrajectories);
  TrajectoryReaderOptions options;
  options.chunk_bytes = 8;
  TrajectoryReader reader(in, options);
  size_t trajs = 0;
  while (true) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    ++trajs;
  }
  EXPECT_EQ(trajs, 3u);
  EXPECT_EQ(reader.trajectories_read(), 3u);
  EXPECT_EQ(reader.records_read(), 6u);
  EXPECT_EQ(reader.lines_read(), 9u);  // 6 samples + 2 comments + 1 blank
}

TEST(TrajectoryReaderTest, StreamEquivalentToLoadDatasetCsv) {
  const std::string path = "stream_ingest_roundtrip.csv";
  {
    Dataset dataset;
    Trajectory a(10);
    a.Append(Point{1.0, 2.0}, 100);
    a.Append(Point{3.0, 4.0}, 200);
    Trajectory b(11);
    b.Append(Point{5.0, 6.0}, 300);
    ASSERT_TRUE(dataset.Add(std::move(a)).ok());
    ASSERT_TRUE(dataset.Add(std::move(b)).ok());
    ASSERT_TRUE(SaveDatasetCsv(dataset, path).ok());
  }
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  TrajectoryReaderOptions options;
  options.chunk_bytes = 3;
  auto streamed = ReadDatasetFromStream(file, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->size(), loaded->size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*streamed)[i].id(), (*loaded)[i].id());
    EXPECT_EQ((*streamed)[i].points(), (*loaded)[i].points());
  }
  std::remove(path.c_str());
}

TEST(TrajectoryReaderTest, NonContiguousIdYieldsSeparateTrajectories) {
  // Interleaving closes the first group; the duplicate id resurfaces as a
  // distinct trajectory (the one-shot Dataset loader rejects it downstream).
  std::istringstream in("1,1.0,1.0,1\n2,2.0,2.0,2\n1,3.0,3.0,3\n");
  const auto trajs = DrainAll(in, 1 << 16);
  ASSERT_EQ(trajs.size(), 3u);
  EXPECT_EQ(trajs[0].id(), 1);
  EXPECT_EQ(trajs[1].id(), 2);
  EXPECT_EQ(trajs[2].id(), 1);
}

}  // namespace
}  // namespace frt
