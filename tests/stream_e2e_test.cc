// Fixed-seed end-to-end regression of the streaming path: a 10k-
// trajectory synthetic feed through a one-feed ServiceDispatcher, the
// configuration frt_stream runs. Locks the acceptance behavior: the
// concatenation of published windows preserves the input trajectory count
// and order, the cross-window ledger composes sequentially and refuses
// windows once --budget is exhausted, and the whole run is deterministic
// across pool sizes and repeats.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/dispatcher.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::OneFeedConfig;
using frt::testing::OneFeedRun;
using frt::testing::RunOneFeed;
using frt::testing::SyntheticCsv;

constexpr uint64_t kSeed = 20260730;

ServiceConfig SmallConfig(size_t window, double budget,
                          unsigned pool_threads = 4) {
  StreamConfig config;
  config.window_size = window;
  config.total_budget = budget;
  config.batch.shards = 4;
  config.batch.pipeline.m = 3;
  config.batch.pipeline.epsilon_global = 0.5;
  config.batch.pipeline.epsilon_local = 0.5;
  return OneFeedConfig(config, pool_threads);
}

TEST(StreamE2ETest, TenThousandTrajectoriesWindowed) {
  const int kTrajectories = 10000;
  const OneFeedRun run =
      RunOneFeed(SmallConfig(1000, 0.0), SyntheticCsv(kTrajectories), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  // Concatenated output matches the input trajectory count, in order.
  const StreamReport& report = run.report;
  EXPECT_EQ(report.trajectories_in, static_cast<size_t>(kTrajectories));
  EXPECT_EQ(report.trajectories_published, static_cast<size_t>(kTrajectories));
  EXPECT_EQ(report.windows_published, 10u);
  EXPECT_EQ(report.windows_refused, 0u);
  ASSERT_EQ(run.published.ids.size(), static_cast<size_t>(kTrajectories));
  for (int i = 0; i < kTrajectories; ++i) {
    EXPECT_EQ(run.published.ids[i], i);
  }
  // At this seed no trajectory is emptied by the deletion mechanism, so
  // the CSV concatenation of the published windows also carries all 10k.
  size_t emptied = 0;
  for (const auto& points : run.published.points) {
    if (points.empty()) ++emptied;
  }
  EXPECT_EQ(emptied, 0u);

  // The ledger sums eps_G + eps_L per window, sequentially: each of the
  // 10 windows charged the one feed-wide key once.
  EXPECT_NEAR(report.epsilon_spent, 10.0, 1e-9);
  EXPECT_EQ(run.ledger.tracked_objects(), 1u);
  EXPECT_NEAR(run.ledger.spent(FeedSession::kFeedWideObject), 10.0, 1e-9);
  ASSERT_EQ(run.published.reports.size(), 10u);
  for (size_t i = 0; i < run.published.reports.size(); ++i) {
    const WindowReport& w = run.published.reports[i];
    EXPECT_NEAR(w.epsilon_spent, 1.0, 1e-9);
    EXPECT_NEAR(w.epsilon_total, static_cast<double>(i + 1), 1e-9);
    EXPECT_EQ(w.trajectories, 1000u);
    EXPECT_EQ(w.batch.shards_run, 4);
  }
}

TEST(StreamE2ETest, BudgetExhaustionRefusesLaterWindows) {
  // 5 windows of eps 1.0 against a total budget of 2.5: windows 0 and 1
  // publish, windows 2..4 are refused and never reach the sink.
  const OneFeedRun run =
      RunOneFeed(SmallConfig(100, 2.5), SyntheticCsv(500), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_closed, 5u);
  EXPECT_EQ(report.windows_published, 2u);
  EXPECT_EQ(report.windows_refused, 3u);
  EXPECT_EQ(report.trajectories_published, 200u);
  EXPECT_EQ(report.trajectories_refused, 300u);
  EXPECT_NEAR(report.epsilon_spent, 2.0, 1e-9);
  EXPECT_NEAR(run.ledger.remaining(FeedSession::kFeedWideObject), 0.5, 1e-9);
  // Only the first two windows' trajectories were published.
  ASSERT_EQ(run.published.ids.size(), 200u);
  EXPECT_EQ(run.published.ids.front(), 0);
  EXPECT_EQ(run.published.ids.back(), 199);
  // Even the whole input was still drained (the service keeps consuming).
  EXPECT_EQ(report.trajectories_in, 500u);
}

TEST(StreamE2ETest, StopWhenExhaustedEndsRunAtFirstRefusal) {
  // With stop_when_exhausted the run terminates at the first refused
  // window instead of draining the feed — the termination path a
  // never-ending feed needs. One closed window at most waits behind the
  // one in flight (max_backlog_windows = 1), so the refusal that stops
  // the run is the only one.
  ServiceConfig config = SmallConfig(100, 2.5);
  config.stream.stop_when_exhausted = true;
  const OneFeedRun run = RunOneFeed(config, SyntheticCsv(500), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 2u);
  EXPECT_EQ(report.windows_refused, 1u);  // the refusal that stopped the run
  EXPECT_EQ(run.published.ids.size(), 200u);
  // The tail of the feed was never pulled through the pipeline.
  EXPECT_LT(report.trajectories_in, 500u);
}

TEST(StreamE2ETest, ExactBudgetPublishesEveryWindow) {
  const OneFeedRun run =
      RunOneFeed(SmallConfig(100, 3.0), SyntheticCsv(300), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.report.windows_published, 3u);
  EXPECT_EQ(run.report.windows_refused, 0u);
  EXPECT_NEAR(run.ledger.remaining(FeedSession::kFeedWideObject), 0.0, 1e-9);
}

TEST(StreamE2ETest, DeterministicAcrossThreadCountsAndRepeats) {
  // Each window's 4 shards and its audit fan out over the shared pool;
  // the release depends only on (rng, shard count), never on the workers.
  const std::string csv = SyntheticCsv(400);
  const OneFeedRun base = RunOneFeed(SmallConfig(100, 0.0, 1), csv, kSeed);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_EQ(base.published.ids.size(), 400u);
  for (const unsigned threads : {2u, 4u, 8u, 4u}) {
    const OneFeedRun other =
        RunOneFeed(SmallConfig(100, 0.0, threads), csv, kSeed);
    ASSERT_TRUE(other.status.ok()) << other.status.ToString();
    ASSERT_EQ(other.published.ids.size(), base.published.ids.size())
        << "pool_threads " << threads;
    EXPECT_EQ(other.published.ids, base.published.ids)
        << "pool_threads " << threads;
    EXPECT_EQ(other.published.points, base.published.points)
        << "pool_threads " << threads;
    ASSERT_EQ(other.published.reports.size(), base.published.reports.size());
    for (size_t w = 0; w < base.published.reports.size(); ++w) {
      EXPECT_EQ(other.published.reports[w].batch.audit.mean_displacement,
                base.published.reports[w].batch.audit.mean_displacement)
          << "pool_threads " << threads << ", window " << w;
    }
  }
}

TEST(StreamE2ETest, FinalPartialWindowIsPublished) {
  const OneFeedRun run =
      RunOneFeed(SmallConfig(100, 0.0), SyntheticCsv(250), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 3u);
  const std::vector<WindowReport>& windows = run.published.reports;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].trajectories, 100u);
  EXPECT_EQ(windows[1].trajectories, 100u);
  EXPECT_EQ(windows[2].trajectories, 50u);
  EXPECT_EQ(run.published.ids.size(), 250u);
}

TEST(StreamE2ETest, ParseErrorFailsRunWithoutPublishingPartialWindow) {
  // A malformed line mid-stream fails the run; the trailing partial window
  // assembled before the bad line must be neither published nor charged to
  // the ledger (complete windows closed earlier stay published). The
  // reader quarantines the feed before returning the error.
  std::string csv = SyntheticCsv(150);
  csv += "151,not_a_number,2.0,3\n";
  const OneFeedRun run = RunOneFeed(SmallConfig(100, 0.0), csv, kSeed);
  EXPECT_FALSE(run.status.ok());
  EXPECT_TRUE(run.quarantined);
  EXPECT_EQ(run.report.windows_published, 1u);
  EXPECT_EQ(run.published.ids.size(), 100u);
  EXPECT_NEAR(run.report.epsilon_wholesale_equivalent, 1.0, 1e-9);
}

TEST(StreamE2ETest, DuplicateIdWithinWindowIsRejected) {
  // The window cannot close (each object may appear once per window): the
  // feed is quarantined as invalid and nothing is published.
  const OneFeedRun run = RunOneFeed(
      SmallConfig(10, 0.0),
      "5,1.0,2.0,1\n5,2.0,3.0,2\n6,4.0,5.0,3\n5,6.0,7.0,4\n", kSeed);
  EXPECT_TRUE(run.quarantined);
  EXPECT_NE(run.quarantine_reason.find("InvalidArgument"), std::string::npos)
      << run.quarantine_reason;
  EXPECT_NE(run.quarantine_reason.find("once per window"), std::string::npos)
      << run.quarantine_reason;
  EXPECT_EQ(run.report.windows_published, 0u);
}

}  // namespace
}  // namespace frt
