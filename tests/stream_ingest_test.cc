// Unit tests for the chunked CSV readers (traj/io.h, stream/ingest.h):
// incremental assembly across chunk boundaries, comment/blank handling,
// trailing-newline variants, malformed input diagnostics, equivalence with
// the one-shot LoadDatasetCsv path, and the multi-feed format — per-feed
// grouping, flush order, and how OfferFeeds stops and quarantines.

#include "stream/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ios>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "service/dispatcher.h"
#include "testing_util.h"
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

/// Serves the first `limit` bytes of `data`, then fails the next read the
/// way a broken file does: underflow throws, which the istream turns into
/// badbit.
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(std::string data, size_t limit) : data_(std::move(data)) {
    data_.resize(std::min(limit, data_.size()));
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("injected read error");
  }

 private:
  std::string data_;
};

TEST(TrajectoryReaderTest, ReadErrorIsAnErrorNotAShortDataset) {
  // The read fails inside trajectory 2: taking that for the end of input
  // would return trajectory 1 and a truncated trajectory 2.
  const std::string csv = kThreeTrajectories;
  const size_t limit = csv.find("2,310");
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{1} << 16}) {
    FailingBuf buf(csv, limit);
    std::istream in(&buf);
    TrajectoryReaderOptions options;
    options.chunk_bytes = chunk;
    const Result<Dataset> dataset = ReadDatasetFromStream(in, options);
    ASSERT_FALSE(dataset.ok()) << "chunk " << chunk;
    EXPECT_TRUE(dataset.status().IsIOError()) << dataset.status().ToString();
  }
  // The trajectory completed before the fault is still delivered; the
  // error follows it and stays.
  FailingBuf buf(csv, limit);
  std::istream in(&buf);
  TrajectoryReader reader(in);
  auto first = reader.Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->id(), 1);
  EXPECT_FALSE(reader.Next().ok());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(TrajectoryReaderTest, LoadingADirectoryIsAnIOError) {
  const Result<Dataset> loaded = LoadDatasetCsv(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

// ---- Multi-feed CSV (feed,traj_id,x,y,t) ----

std::vector<FeedTrajectory> DrainFeeds(std::istream& in, size_t chunk_bytes) {
  TrajectoryReaderOptions options;
  options.chunk_bytes = chunk_bytes;
  MultiFeedReader reader(in, options);
  std::vector<FeedTrajectory> out;
  for (;;) {
    auto next = reader.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    out.push_back(std::move(**next));
  }
  return out;
}

/// "feed:id:points" per trajectory, in the order the reader returned them.
std::vector<std::string> Summaries(const std::vector<FeedTrajectory>& got) {
  std::vector<std::string> out;
  for (const FeedTrajectory& ft : got) {
    out.push_back(ft.feed + ":" + std::to_string(ft.trajectory.id()) + ":" +
                  std::to_string(ft.trajectory.size()));
  }
  return out;
}

TEST(MultiFeedReaderTest, InterleavedFeedsAreContiguousPerFeed) {
  // a's trajectory 1 continues across b's lines; each feed's id change
  // closes only that feed's trajectory.
  constexpr char kCsv[] =
      "# feed,traj_id,x,y,t\n"
      "a,1,1.0,1.0,1\n"
      "b,1,5.0,5.0,1\n"
      "a,1,2.0,2.0,2\n"
      "b,2,6.0,6.0,2\n"
      "a,1,3.0,3.0,3\n"
      "a,2,4.0,4.0,4\n"
      "b,2,7.0,7.0,3\n";
  for (const size_t chunk : {1u, 3u, 7u, 1u << 16}) {
    SCOPED_TRACE(chunk);
    std::istringstream in(kCsv);
    const std::vector<FeedTrajectory> got = DrainFeeds(in, chunk);
    EXPECT_EQ(Summaries(got),
              (std::vector<std::string>{"b:1:1", "a:1:3", "a:2:1", "b:2:2"}));
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[1].trajectory[2].p, (Point{3.0, 3.0}));
    EXPECT_EQ(got[3].trajectory[1].t, 3);
  }
}

TEST(MultiFeedReaderTest, OpenTrajectoriesFlushAtEndInFirstSeenFeedOrder) {
  // Seen order c, a, b; only c's first trajectory closes mid-stream.
  std::istringstream in(
      "c,9,1.0,1.0,1\na,3,1.0,1.0,1\nb,4,1.0,1.0,1\nc,8,1.0,1.0,2\n"
      "a,3,2.0,2.0,2");
  MultiFeedReader reader(in);
  std::vector<FeedTrajectory> got;
  for (;;) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    got.push_back(std::move(**next));
  }
  EXPECT_EQ(Summaries(got),
            (std::vector<std::string>{"c:9:1", "c:8:1", "a:3:2", "b:4:1"}));
  EXPECT_EQ(reader.feeds(), (std::vector<std::string>{"c", "a", "b"}));
  // End of stream is sticky.
  auto done = reader.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
}

TEST(MultiFeedReaderTest, CrLfBlankLinesAndIndentedCommentsAreSkipped) {
  // The same blank and comment lines the single-feed reader skips.
  constexpr char kCsv[] =
      "# feed,traj_id,x,y,t\r\n"
      "a,1,1.0,1.0,1\r\n"
      "\r\n"
      "   # indented comment\r\n"
      "\t\r\n"
      " \t# tab-indented comment\n"
      "a,1,2.0,2.0,2\r\n"
      "b,# feed-tagged comment\r\n"
      "b,2,3.0,3.0,3\r\n";
  for (const size_t chunk : {1u, 5u, 1u << 16}) {
    SCOPED_TRACE(chunk);
    std::istringstream in(kCsv);
    EXPECT_EQ(Summaries(DrainFeeds(in, chunk)),
              (std::vector<std::string>{"a:1:2", "b:2:1"}));
  }
}

/// The reader's first error on `csv` (ToString), after draining what
/// precedes it.
std::string FirstFeedError(const std::string& csv) {
  std::istringstream in(csv);
  MultiFeedReader reader(in);
  for (;;) {
    auto next = reader.Next();
    if (!next.ok()) return next.status().ToString();
    if (!next->has_value()) return "OK";
  }
}

TEST(MultiFeedReaderTest, BadFeedIdAndMissingFeedColumnNameTheLine) {
  const std::string bad_id =
      Status::InvalidArgument(std::string("line 2: ") + kFeedIdRule)
          .ToString();
  EXPECT_EQ(FirstFeedError("a,1,1.0,1.0,1\n../escaped,1,1.0,1.0,1\n"),
            bad_id);
  EXPECT_EQ(FirstFeedError("a,1,1.0,1.0,1\n,1,1.0,1.0,1\n"), bad_id);
  EXPECT_EQ(FirstFeedError(" a,1,1.0,1.0,1\n"),
            Status::InvalidArgument(std::string("line 1: ") + kFeedIdRule)
                .ToString());
  EXPECT_EQ(FirstFeedError("# header\nno-comma-here\n"),
            Status::InvalidArgument("line 2: expected feed,traj_id,x,y,t")
                .ToString());
  // The record after the feed column is ParseCsvRecord's, same line.
  EXPECT_EQ(FirstFeedError("a,1,1.0,1.0,1\na,1,1.0\n"),
            ParseCsvRecord("1,1.0", 2).status().ToString());
  EXPECT_EQ(FirstFeedError("a,1,1.0,1.0,1\na,1,nan,1.0,2\n"),
            ParseCsvRecord("1,nan,1.0,2", 2).status().ToString());
}

TEST(MultiFeedReaderTest, ReadFailureIsAnIOErrorNamingTheLastLine) {
  const std::string csv =
      "a,1,1.0,1.0,1\nb,1,1.0,1.0,1\na,2,1.0,1.0,2\nb,1,2.0,2.0,2\n";
  const size_t limit = csv.find("b,1,2.0");  // three whole lines
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{1} << 16}) {
    SCOPED_TRACE(chunk);
    FailingBuf buf(csv, limit);
    std::istream in(&buf);
    TrajectoryReaderOptions options;
    options.chunk_bytes = chunk;
    MultiFeedReader reader(in, options);
    // a's trajectory 1 closed before the fault and is still delivered.
    auto first = reader.Next();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first->has_value());
    EXPECT_EQ((*first)->feed, "a");
    auto failed = reader.Next();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().ToString(),
              Status::IOError("read failed after line 3").ToString());
    EXPECT_EQ(reader.Next().status().ToString(),
              failed.status().ToString());  // sticky
  }
}

using testing::ServiceCapture;

ServiceConfig MultiFeedServiceConfig() {
  ServiceConfig config;
  config.stream.window_size = 100;  // no window closes in these tests
  config.stream.batch.pipeline = testing::SmallPipeline(3);
  config.pool_threads = 2;
  return config;
}

TEST(OfferFeedsTest, ReadingStopsWhenOfferIsRefused) {
  // A service that never started refuses every Offer: OfferFeeds returns
  // OK after the first trajectory instead of draining the input.
  ServiceCapture capture;
  ServiceDispatcher service(MultiFeedServiceConfig(), capture.MakeSink());
  std::istringstream in(
      "a,1,1.0,1.0,1\na,2,1.0,1.0,2\nb,1,1.0,1.0,3\na,3,1.0,1.0,4\n");
  MultiFeedReader reader(in);
  ASSERT_TRUE(OfferFeeds(reader, service).ok());
  auto next = reader.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->feed, "a");
  EXPECT_EQ((*next)->trajectory.id(), 2);
}

TEST(OfferFeedsTest, BadLineQuarantinesEveryFeedSeenThenReturnsTheError) {
  ServiceCapture capture;
  ServiceDispatcher service(MultiFeedServiceConfig(), capture.MakeSink());
  ASSERT_TRUE(service.Start(7).ok());
  // c's only line is the bad one, so c never becomes a feed.
  std::istringstream in(
      "a,1,1.0,1.0,1\nb,1,1.0,1.0,1\na,2,1.0,1.0,2\nc,1,oops,1.0,3\n"
      "b,2,1.0,1.0,4\n");
  MultiFeedReader reader(in);
  const Status ingest = OfferFeeds(reader, service);
  ASSERT_FALSE(ingest.ok());
  EXPECT_EQ(ingest.ToString(),
            ParseCsvRecord("1,oops,1.0,3", 4).status().ToString());
  ASSERT_TRUE(service.Finish().ok());
  std::vector<std::string> quarantined;
  for (const ServiceSnapshot::Feed& feed : service.report().feeds_detail) {
    EXPECT_TRUE(feed.quarantined) << feed.feed;
    EXPECT_EQ(feed.quarantine_reason, ingest.ToString()) << feed.feed;
    quarantined.push_back(feed.feed);
  }
  std::sort(quarantined.begin(), quarantined.end());
  EXPECT_EQ(quarantined, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(capture.published_windows, 0u);
}

TEST(FeedIdTest, AcceptsOnlyFileAndRecordSafeNames) {
  for (const char* ok : {"a", "stream", "f00", "Feed-0.a_Z", "a..b", "x."}) {
    EXPECT_TRUE(IsValidFeedId(ok)) << ok;
  }
  EXPECT_TRUE(IsValidFeedId(std::string(kMaxFeedIdBytes, 'f')));
  for (const std::string& bad :
       {std::string(), std::string("."), std::string(".."),
        std::string("../escaped"), std::string("a/b"), std::string("a\\b"),
        std::string("a b"), std::string("a\nb"), std::string("a=b"),
        std::string("feed\0", 5), std::string("caf\xc3\xa9"),
        std::string(kMaxFeedIdBytes + 1, 'f')}) {
    EXPECT_FALSE(IsValidFeedId(bad)) << bad;
  }
}

}  // namespace
}  // namespace frt
