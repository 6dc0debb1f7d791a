// Coverage of the durable budget-ledger layer (src/service/checkpoint):
// snapshot encode/decode round-trips, strict rejection of corrupt or
// truncated snapshots, atomic CheckpointStore persistence, in-process
// crash/recover through ServiceDispatcher (the conservative-carry
// invariant: recovery can only under-grant, never over-grant), and the
// interval metrics exporter.

#include "service/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/dispatcher.h"
#include "service/metrics_exporter.h"
#include "stream/ingest.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::ServiceCapture;
using frt::testing::SyntheticCsv;

constexpr uint64_t kSeed = 20260807;

/// Fresh unique directory under the test temp root.
std::string MakeStateDir() {
  std::string templ = ::testing::TempDir() + "frt_ckpt_XXXXXX";
  char* made = mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ServiceCheckpoint SampleCheckpoint() {
  ServiceCheckpoint image;
  image.sequence = 41;
  image.total_budget = 4.0;
  image.per_object_budget = 1.5;
  FeedCheckpoint alpha;
  alpha.feed = "alpha";
  alpha.generations = 3;
  alpha.windows_closed = 17;
  alpha.wholesale_spent = 1.7999999999999998;  // exercises %.17g fidelity
  alpha.per_object_floor = 0.6;
  FeedCheckpoint spaced;
  spaced.feed = "beta feed with spaces";
  spaced.generations = 1;
  spaced.windows_closed = 2;
  spaced.wholesale_spent = 0.25;
  spaced.per_object_floor = 0.0;
  image.feeds = {alpha, spaced};
  return image;
}

// ---------------------------------------------------------------------------
// Format round-trip and strict rejection.

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip) {
  const ServiceCheckpoint image = SampleCheckpoint();
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(image));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sequence, 41u);
  EXPECT_EQ(decoded->total_budget, 4.0);
  EXPECT_EQ(decoded->per_object_budget, 1.5);
  ASSERT_EQ(decoded->feeds.size(), 2u);
  EXPECT_EQ(decoded->feeds[0].feed, "alpha");
  EXPECT_EQ(decoded->feeds[0].generations, 3u);
  EXPECT_EQ(decoded->feeds[0].windows_closed, 17u);
  // Bit-exact: a recovered ledger must match the one that was persisted.
  EXPECT_EQ(decoded->feeds[0].wholesale_spent, 1.7999999999999998);
  EXPECT_EQ(decoded->feeds[0].per_object_floor, 0.6);
  EXPECT_EQ(decoded->feeds[1].feed, "beta feed with spaces");
  EXPECT_EQ(decoded->feeds[1].wholesale_spent, 0.25);
}

TEST(CheckpointFormatTest, EmptyFeedListRoundTrips) {
  ServiceCheckpoint image;
  image.sequence = 1;
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(image));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sequence, 1u);
  EXPECT_TRUE(decoded->feeds.empty());
}

TEST(CheckpointFormatTest, RejectsBadMagicAndVersion) {
  std::string text = EncodeCheckpoint(SampleCheckpoint());
  EXPECT_FALSE(DecodeCheckpoint("not-a-checkpoint 1\n").ok());
  std::string wrong_version = text;
  wrong_version.replace(wrong_version.find(" 1\n"), 3, " 9\n");
  EXPECT_FALSE(DecodeCheckpoint(wrong_version).ok());
  EXPECT_FALSE(DecodeCheckpoint("").ok());
}

TEST(CheckpointFormatTest, RejectsChecksumMismatch) {
  std::string text = EncodeCheckpoint(SampleCheckpoint());
  // Flip one payload byte; the checksum line no longer matches.
  const size_t pos = text.find("alpha");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'A';
  auto decoded = DecodeCheckpoint(text);
  EXPECT_FALSE(decoded.ok());
}

TEST(CheckpointFormatTest, RejectsTruncatedSnapshot) {
  const std::string text = EncodeCheckpoint(SampleCheckpoint());
  // Every proper prefix is invalid: a torn write can never be accepted.
  EXPECT_FALSE(DecodeCheckpoint(text.substr(0, text.size() / 2)).ok());
  const size_t checksum_at = text.rfind("checksum");
  ASSERT_NE(checksum_at, std::string::npos);
  EXPECT_FALSE(DecodeCheckpoint(text.substr(0, checksum_at)).ok());
  EXPECT_FALSE(DecodeCheckpoint(text.substr(0, text.size() - 1)).ok());
}

TEST(CheckpointFormatTest, RejectsTrailingGarbage) {
  std::string text = EncodeCheckpoint(SampleCheckpoint());
  EXPECT_FALSE(DecodeCheckpoint(text + "extra\n").ok());
}

TEST(CheckpointFormatTest, RejectsDuplicateFeedsAndBadValues) {
  ServiceCheckpoint dup = SampleCheckpoint();
  dup.feeds[1].feed = dup.feeds[0].feed;
  EXPECT_FALSE(DecodeCheckpoint(EncodeCheckpoint(dup)).ok());

  ServiceCheckpoint negative = SampleCheckpoint();
  negative.feeds[0].wholesale_spent = -0.5;
  EXPECT_FALSE(DecodeCheckpoint(EncodeCheckpoint(negative)).ok());

  // Malformed number in an otherwise well-formed (re-checksummed) image is
  // caught by the field parser, not just the checksum.
  std::string text = EncodeCheckpoint(SampleCheckpoint());
  const size_t pos = text.find("seq 41");
  ASSERT_NE(pos, std::string::npos);
  std::string broken = text.substr(0, pos) + "seq 4x1\n" +
                       text.substr(text.find('\n', pos) + 1);
  // Strip the now-stale checksum line and re-encode is overkill; the
  // checksum check fires first, which is equally a rejection.
  EXPECT_FALSE(DecodeCheckpoint(broken).ok());
}

// ---------------------------------------------------------------------------
// Atomic persistence.

TEST(CheckpointStoreTest, LoadOnFreshDirIsEmpty) {
  auto store = CheckpointStore::Open(MakeStateDir());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->has_value());
}

TEST(CheckpointStoreTest, OpenCreatesMissingDirectory) {
  const std::string dir = MakeStateDir() + "/nested/state";
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Write(SampleCheckpoint()).ok());
}

TEST(CheckpointStoreTest, WriteLoadRoundTripAndOverwrite) {
  auto store = CheckpointStore::Open(MakeStateDir());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ServiceCheckpoint image = SampleCheckpoint();
  ASSERT_TRUE(store->Write(image).ok());
  auto first = store->Load();
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->sequence, 41u);

  image.sequence = 42;
  image.feeds[0].wholesale_spent = 2.4;
  ASSERT_TRUE(store->Write(image).ok());
  auto second = store->Load();
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((*second)->sequence, 42u);
  EXPECT_EQ((*second)->feeds[0].wholesale_spent, 2.4);
  // The temp file never survives a successful write.
  EXPECT_NE(::access(store->path().c_str(), F_OK), -1);
  EXPECT_EQ(::access((store->path() + ".tmp").c_str(), F_OK), -1);
}

TEST(CheckpointStoreTest, SyncDirFailurePropagatesAsIOError) {
  // The durability contract is "rename THEN dir fsync": a crash between
  // them can lose the rename, so a failed dir sync must fail the Write —
  // it used to be silently discarded. Deleting the state dir out from
  // under the store makes the dir open (the first SyncDir step) fail
  // deterministically.
  const std::string dir = MakeStateDir();
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->SyncDir().ok());
  ASSERT_EQ(::rmdir(dir.c_str()), 0) << "state dir should still be empty";
  const Status st = store->SyncDir();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // And through the full Write path: with the directory gone the write
  // must report the failure, never pretend the snapshot is durable.
  EXPECT_FALSE(store->Write(SampleCheckpoint()).ok());
}

TEST(CheckpointStoreTest, LoadRejectsCorruptSnapshot) {
  const std::string dir = MakeStateDir();
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Write(SampleCheckpoint()).ok());
  // Truncate the durable snapshot in place (a torn disk image).
  const std::string text = ReadFile(store->path());
  std::ofstream out(store->path(), std::ios::binary | std::ios::trunc);
  out << text.substr(0, text.size() / 2);
  out.close();
  EXPECT_FALSE(store->Load().ok());
}

// ---------------------------------------------------------------------------
// Dispatcher recovery: the conservative-carry invariant across restarts.

ServiceConfig DurableConfig(const std::string& state_dir) {
  ServiceConfig config;
  config.stream.window_size = 20;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;  // 1.0 per window
  config.pool_threads = 2;
  config.state_dir = state_dir;
  config.checkpoint_interval_ms = 1;
  return config;
}

std::vector<Trajectory> Arrivals(int n, int distinct_ids = 0) {
  std::istringstream in(SyntheticCsv(n, distinct_ids));
  std::vector<Trajectory> out;
  TrajectoryReader reader(in);
  for (;;) {
    auto next = reader.Next();
    EXPECT_TRUE(next.ok());
    if (!next->has_value()) break;
    out.push_back(std::move(**next));
  }
  return out;
}

TEST(CheckpointRecoveryTest, WholesaleSpendCarriesAcrossRestart) {
  const std::string dir = MakeStateDir();
  const std::vector<Trajectory> trajs = Arrivals(60);  // 3 windows of 20
  const std::vector<std::string> feeds = {"alpha", "beta"};

  // Run 1: budget 4.0, per-window epsilon 1.0 -> publishes all 3 windows,
  // leaving 3.0 spent per feed in the durable snapshot.
  {
    ServiceConfig config = DurableConfig(dir);
    config.stream.total_budget = 4.0;
    ServiceCapture capture;
    ServiceDispatcher service(config, capture.MakeSink());
    ASSERT_TRUE(service.Start(kSeed).ok());
    for (const Trajectory& t : trajs) {
      for (const auto& feed : feeds) ASSERT_TRUE(service.Offer(feed, t));
    }
    ASSERT_TRUE(service.Finish().ok());
    const ServiceReport& report = service.report();
    EXPECT_EQ(report.feeds_recovered, 0u);
    EXPECT_GE(report.checkpoints_written, 1u);
    EXPECT_EQ(report.windows_published, 6u);
    for (const auto& feed : report.feeds_report) {
      EXPECT_DOUBLE_EQ(feed.stream.epsilon_spent, 3.0);
    }
  }

  // The snapshot on disk carries exactly the run-1 ledgers.
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto loaded = store->Load();
    ASSERT_TRUE(loaded.ok() && loaded->has_value());
    ASSERT_EQ((*loaded)->feeds.size(), 2u);
    for (const auto& feed : (*loaded)->feeds) {
      EXPECT_DOUBLE_EQ(feed.wholesale_spent, 3.0);
      EXPECT_EQ(feed.windows_closed, 3u);
      EXPECT_EQ(feed.generations, 1u);
    }
  }

  // Run 2, same state dir and budget: recovery preloads 3.0 spent per
  // feed, so only ONE more window fits (3.0 + 1.0 <= 4.0); the rest are
  // refused. Total spend across both runs never exceeds the budget.
  {
    ServiceConfig config = DurableConfig(dir);
    config.stream.total_budget = 4.0;
    ServiceCapture capture;
    ServiceDispatcher service(config, capture.MakeSink());
    ASSERT_TRUE(service.Start(kSeed + 1).ok());
    for (const Trajectory& t : trajs) {
      for (const auto& feed : feeds) ASSERT_TRUE(service.Offer(feed, t));
    }
    ASSERT_TRUE(service.Finish().ok());
    const ServiceReport& report = service.report();
    EXPECT_EQ(report.feeds_recovered, 2u);
    EXPECT_EQ(report.windows_published, 2u);  // one per feed
    EXPECT_EQ(report.windows_refused, 4u);    // two per feed
    EXPECT_TRUE(ServiceHadRefusals(report));
    for (const auto& feed : report.feeds_report) {
      EXPECT_EQ(feed.sessions, 2u);  // generation continued, not reset
      EXPECT_DOUBLE_EQ(feed.stream.epsilon_spent, 4.0);
      EXPECT_LE(feed.stream.epsilon_spent, 4.0 + 1e-12);
    }
    // Recovered window indices continue where run 1 stopped.
    for (const auto& [name, feed] : capture.feeds) {
      ASSERT_EQ(feed.reports.size(), 1u) << name;
      EXPECT_EQ(feed.reports[0].index, 3u) << name;
    }
  }
}

TEST(CheckpointRecoveryTest, PerObjectFloorCarriesAcrossRestart) {
  const std::string dir = MakeStateDir();
  // Ids recycle every window: each window holds objects 0..19, so each
  // object's cumulative spend grows by 1.0 per published window.
  const std::vector<Trajectory> trajs = Arrivals(60, 20);

  // Run 1: per-object budget 1.5 -> the first window spends 1.0 per
  // object, the remaining windows are refused (1.0 + 1.0 > 1.5).
  {
    ServiceConfig config = DurableConfig(dir);
    config.stream.accounting = BudgetAccounting::kPerObject;
    config.stream.per_object_budget = 1.5;
    ServiceCapture capture;
    ServiceDispatcher service(config, capture.MakeSink());
    ASSERT_TRUE(service.Start(kSeed).ok());
    for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("taxi", t));
    ASSERT_TRUE(service.Finish().ok());
    EXPECT_EQ(service.report().windows_published, 1u);
    ASSERT_EQ(service.report().feeds_report.size(), 1u);
    EXPECT_DOUBLE_EQ(service.report().feeds_report[0].stream.epsilon_spent,
                     1.0);
  }

  // Run 2: every object — including NEVER-seen ones — starts at the
  // recovered floor of 1.0, so no further window is admitted. A crash can
  // only under-grant.
  {
    ServiceConfig config = DurableConfig(dir);
    config.stream.accounting = BudgetAccounting::kPerObject;
    config.stream.per_object_budget = 1.5;
    ServiceCapture capture;
    ServiceDispatcher service(config, capture.MakeSink());
    ASSERT_TRUE(service.Start(kSeed + 1).ok());
    for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("taxi", t));
    ASSERT_TRUE(service.Finish().ok());
    const ServiceReport& report = service.report();
    EXPECT_EQ(report.feeds_recovered, 1u);
    EXPECT_EQ(report.windows_published, 0u);
    EXPECT_EQ(report.windows_refused, 3u);
    ASSERT_EQ(report.feeds_report.size(), 1u);
    // Floor preserved: max per-object spend never exceeds the budget.
    EXPECT_DOUBLE_EQ(report.feeds_report[0].stream.epsilon_spent, 1.0);
    EXPECT_LE(report.feeds_report[0].stream.epsilon_spent, 1.5);
  }
}

TEST(CheckpointRecoveryTest, StartRefusesCorruptSnapshot) {
  const std::string dir = MakeStateDir();
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Write(SampleCheckpoint()).ok());
    const std::string text = ReadFile(store->path());
    std::ofstream out(store->path(), std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() - 4);
  }
  ServiceConfig config = DurableConfig(dir);
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  // A snapshot that exists but cannot be trusted must fail startup loudly
  // instead of silently re-granting budget.
  EXPECT_FALSE(service.Start(kSeed).ok());
}

// ---------------------------------------------------------------------------
// Metrics exporter.

TEST(MetricsExporterTest, EmitsMachineReadableLines) {
  const std::string path = MakeStateDir() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  options.interval_ms = 10;
  options.per_feed = true;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(exporter.per_feed());

  MetricsSnapshot snapshot;
  snapshot.seq = 7;
  snapshot.windows_published = 3;
  snapshot.trajectories_published = 60;
  snapshot.epsilon_spent_max = 1.8;
  snapshot.checkpoint_seq = 5;
  snapshot.checkpoints_written = 5;
  snapshot.checkpoint_errors = 2;
  snapshot.feeds_quarantined = 1;
  MetricsSnapshot::Feed feed;
  feed.feed = "alpha";
  feed.epsilon_spent = 1.8;
  feed.epsilon_remaining = 7.2;
  feed.windows_published = 3;
  snapshot.feeds_detail.push_back(feed);
  exporter.Publish(snapshot);

  // The exporter re-emits on every interval even without new snapshots.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  exporter.Stop();
  EXPECT_GE(exporter.lines_written(), 1u);

  const std::string log = ReadFile(path);
  EXPECT_NE(log.find("frt_metrics "), std::string::npos);
  EXPECT_NE(log.find("seq=7"), std::string::npos);
  EXPECT_NE(log.find("windows_published=3"), std::string::npos);
  EXPECT_NE(log.find("ckpt_seq=5"), std::string::npos);
  EXPECT_NE(log.find("ckpt_errors=2"), std::string::npos);
  EXPECT_NE(log.find("feeds_quarantined=1"), std::string::npos);
  EXPECT_NE(log.find("frt_feed "), std::string::npos);
  EXPECT_NE(log.find("feed=alpha"), std::string::npos);
  EXPECT_NE(log.find("eps_remaining=7.2"), std::string::npos);
}

TEST(MetricsExporterTest, EmitsStageHistogramLinesWhenEnabled) {
  const std::string path = MakeStateDir() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  options.interval_ms = 10;
  options.histograms = true;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(exporter.histograms());

  MetricsSnapshot snapshot;
  snapshot.seq = 1;
  MetricsSnapshot::Stage stage;
  stage.stage = "anonymize";
  stage.count = 42;
  stage.p50_ms = 1.25;
  stage.p99_ms = 9.5;
  stage.max_ms = 12.0;
  stage.mean_ms = 2.0;
  snapshot.stages.push_back(stage);
  exporter.Publish(snapshot);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  exporter.Stop();

  const std::string log = ReadFile(path);
  EXPECT_NE(log.find("frt_stage "), std::string::npos);
  EXPECT_NE(log.find("stage=anonymize"), std::string::npos);
  EXPECT_NE(log.find("count=42"), std::string::npos);
  EXPECT_NE(log.find("p50_ms=1.250"), std::string::npos);
  EXPECT_NE(log.find("p99_ms=9.500"), std::string::npos);
}

TEST(MetricsExporterTest, StageLinesAbsentByDefault) {
  const std::string path = MakeStateDir() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  options.interval_ms = 10;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_FALSE(exporter.histograms());

  MetricsSnapshot snapshot;
  snapshot.seq = 1;
  MetricsSnapshot::Stage stage;
  stage.stage = "anonymize";
  stage.count = 1;
  snapshot.stages.push_back(stage);
  exporter.Publish(snapshot);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  exporter.Stop();
  EXPECT_EQ(ReadFile(path).find("frt_stage "), std::string::npos);
}

TEST(MetricsExporterTest, StopFlushesFinalPartialIntervalSnapshot) {
  const std::string path = MakeStateDir() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  // An interval far longer than the test: the loop never fires, so any
  // output must come from Stop()'s final flush.
  options.interval_ms = 60000;
  options.per_feed = true;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());

  MetricsSnapshot snapshot;
  snapshot.seq = 1;
  exporter.Publish(snapshot);
  snapshot.seq = 2;
  snapshot.windows_published = 9;
  MetricsSnapshot::Feed feed;
  feed.feed = "alpha";
  feed.epsilon_spent = 0.5;
  feed.epsilon_remaining = 1.5;
  snapshot.feeds_detail.push_back(feed);
  exporter.Publish(snapshot);
  exporter.Stop();

  // The final (latest) snapshot made it out, not the first.
  EXPECT_GE(exporter.lines_written(), 1u);
  const std::string log = ReadFile(path);
  EXPECT_NE(log.find("seq=2"), std::string::npos);
  EXPECT_NE(log.find("windows_published=9"), std::string::npos);
  EXPECT_NE(log.find("feed=alpha"), std::string::npos);
}

TEST(MetricsExporterTest, SetIntervalMsRetunesTheCadence) {
  const std::string path = MakeStateDir() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  options.interval_ms = 60000;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_EQ(exporter.interval_ms(), 60000);

  MetricsSnapshot snapshot;
  snapshot.seq = 1;
  exporter.Publish(snapshot);
  // Wait until the exporter thread is asleep on the 60 s interval, so the
  // retune below always lands mid-wait (the case a lost wake-up breaks):
  // waits_begun is bumped under the lock the wait then releases, and
  // SetIntervalMs takes that lock.
  while (exporter.waits_begun() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Retune from one-a-minute to 5 ms: the sleeping loop must pick the
  // new cadence up and start emitting well before the old deadline.
  exporter.SetIntervalMs(5);
  EXPECT_EQ(exporter.interval_ms(), 5);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exporter.lines_written() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(exporter.lines_written(), 2u);
  exporter.Stop();
}

TEST(MetricsExporterTest, StopIsIdempotentAndStderrPathWorks) {
  MetricsExporter::Options options;
  options.path = "-";
  options.interval_ms = 1000;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  MetricsSnapshot snapshot;
  snapshot.seq = 1;
  exporter.Publish(snapshot);
  exporter.Stop();
  exporter.Stop();
  EXPECT_GE(exporter.lines_written(), 1u);
}

}  // namespace
}  // namespace frt
