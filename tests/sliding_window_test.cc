// Fixed-seed end-to-end coverage of the sliding-window streaming refactor:
// stride < window overlap semantics, per-object budget accounting with and
// without eviction of exhausted objects, the wholesale-vs-per-object A/B
// (identical feed, budget, and seed — per-object publishes strictly more
// windows while no object ever exceeds the budget, checked against a
// brute-force per-object tally), and the refusal condition frt_stream maps
// to exit code 3 — all through a one-feed ServiceDispatcher, the
// configuration frt_stream runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/dispatcher.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::OneFeedConfig;
using frt::testing::OneFeedRun;
using frt::testing::RunOneFeed;
using frt::testing::SyntheticCsv;

constexpr uint64_t kSeed = 20260731;

StreamConfig BaseConfig(size_t window, size_t stride) {
  StreamConfig config;
  config.window_size = window;
  config.window_stride = stride;
  config.batch.shards = 4;
  config.batch.pipeline.m = 3;
  config.batch.pipeline.epsilon_global = 0.5;
  config.batch.pipeline.epsilon_local = 0.5;
  return config;
}

// Feed where object 0 reappears in every window while the other
// `fresh_per_window` objects of each window are new ids — the shape where
// per-object eviction shines: only the recurring object ever exhausts.
std::string RecurringLeaderCsv(int windows, int fresh_per_window) {
  std::ostringstream out;
  out << "# traj_id,x,y,t\n";
  int arrival = 0;
  for (int w = 0; w < windows; ++w) {
    for (int k = 0; k < fresh_per_window + 1; ++k, ++arrival) {
      const int id = k == 0 ? 0 : 1000 + w * fresh_per_window + (k - 1);
      const int points = 24 + (arrival * 7) % 17;
      double x = 200.0 + (arrival * 137) % 1700;
      double y = 300.0 + (arrival * 251) % 1500;
      int64_t t = 1000 + arrival;
      for (int j = 0; j < points; ++j) {
        out << id << ',' << x << ',' << y << ',' << t << '\n';
        x += 35.0 + (j * 11) % 20;
        y += 25.0 + ((arrival + j) * 13) % 30;
        t += 60;
      }
    }
  }
  return out.str();
}

TEST(SlidingWindowTest, StrideSmallerThanWindowOverlaps) {
  // 33 arrivals, window 10, stride 5: closed windows cover arrivals
  // [0,10) [5,15) [10,20) [15,25) [20,30), then the trailing partial
  // window picks up the uncovered tail [25,33).
  const OneFeedRun run =
      RunOneFeed(OneFeedConfig(BaseConfig(10, 5)), SyntheticCsv(33), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const auto& capture = run.published;

  const StreamReport& report = run.report;
  EXPECT_EQ(report.trajectories_in, 33u);
  EXPECT_EQ(report.windows_closed, 6u);
  EXPECT_EQ(report.windows_published, 6u);
  EXPECT_EQ(report.windows_refused, 0u);
  EXPECT_FALSE(StreamHadRefusals(report));
  ASSERT_EQ(capture.window_ids.size(), 6u);
  for (size_t w = 0; w < 5; ++w) {
    ASSERT_EQ(capture.window_ids[w].size(), 10u) << "window " << w;
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(capture.window_ids[w][j],
                static_cast<TrajId>(w * 5 + j));
    }
  }
  ASSERT_EQ(capture.window_ids[5].size(), 8u);
  for (size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(capture.window_ids[5][j], static_cast<TrajId>(25 + j));
  }
  // Overlap re-publishes trajectories: 5 full windows x 10 + trailing 8.
  EXPECT_EQ(report.trajectories_published, 58u);
}

TEST(SlidingWindowTest, StrideEqualToWindowMatchesTumblingDefault) {
  const std::string csv = SyntheticCsv(40);
  auto run = [&](size_t stride) {
    const OneFeedRun result =
        RunOneFeed(OneFeedConfig(BaseConfig(10, stride)), csv, kSeed);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return result.published;
  };
  const auto explicit_stride = run(10);
  const auto default_stride = run(0);  // 0 = tumbling default
  ASSERT_EQ(explicit_stride.ids.size(), 40u);
  EXPECT_EQ(explicit_stride.ids, default_stride.ids);
  EXPECT_EQ(explicit_stride.points, default_stride.points);
}

TEST(SlidingWindowTest, DuplicateIdInsideOverlappingWindowIsRejected) {
  // Ids recycle every 15 arrivals but the window spans 20, so the very
  // first window contains a duplicate — the ring buffer must reject it
  // like the tumbling assembler always has: the feed is quarantined as
  // invalid and nothing is published.
  const OneFeedRun run = RunOneFeed(OneFeedConfig(BaseConfig(20, 5)),
                                    SyntheticCsv(30, 15), kSeed);
  EXPECT_TRUE(run.quarantined);
  EXPECT_NE(run.quarantine_reason.find("InvalidArgument"), std::string::npos)
      << run.quarantine_reason;
  EXPECT_EQ(run.report.windows_published, 0u);
}

TEST(SlidingWindowTest, PerObjectPublishesStrictlyMoreWindowsThanWholesale) {
  // 1000 arrivals over 200 recycling ids, window 100: the two id
  // populations {0..99} and {100..199} alternate windows, so each object
  // sits in 5 of the 10 windows. Identical feed, budget (3.0), and seed:
  //   wholesale  — every window bills the one ledger; 3 windows publish.
  //   per-object — a window is refused only when ITS objects exhaust;
  //                windows 0..5 publish (each object then at 3.0), 6..9
  //                are refused. Strictly more under the same guarantee.
  const std::string csv = SyntheticCsv(1000, 200);
  const double kBudget = 3.0;

  auto run = [&](bool per_object,
                 frt::testing::ServiceCapture::Feed* capture,
                 StreamReport* report, double* max_object_eps) {
    StreamConfig config = BaseConfig(100, 0);
    if (per_object) {
      config.per_object_budget = kBudget;
    } else {
      config.total_budget = kBudget;
    }
    OneFeedRun result = RunOneFeed(OneFeedConfig(config), csv, kSeed);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    *capture = std::move(result.published);
    *report = result.report;
    *max_object_eps = result.ledger.max_spent();
  };

  frt::testing::ServiceCapture::Feed wholesale_capture, per_object_capture;
  StreamReport wholesale_report, per_object_report;
  double wholesale_max = 0.0, per_object_max = 0.0;
  run(/*per_object=*/false, &wholesale_capture, &wholesale_report,
      &wholesale_max);
  run(/*per_object=*/true, &per_object_capture, &per_object_report,
      &per_object_max);

  EXPECT_EQ(wholesale_report.windows_published, 3u);
  EXPECT_EQ(wholesale_report.windows_refused, 7u);
  EXPECT_EQ(per_object_report.windows_published, 6u);
  EXPECT_EQ(per_object_report.windows_refused, 4u);
  // The acceptance bar: strictly more windows, same budget, same seed.
  EXPECT_GT(per_object_report.windows_published,
            wholesale_report.windows_published);
  EXPECT_TRUE(StreamHadRefusals(wholesale_report));
  EXPECT_TRUE(StreamHadRefusals(per_object_report));

  // Brute-force per-object tally over what was ACTUALLY published: each
  // window appearance cost eps_G + eps_L = 1.0. No object may exceed the
  // budget, and the accountant's ledgers must agree with the tally.
  std::unordered_map<TrajId, double> tally;
  for (const auto& window : per_object_capture.window_ids) {
    for (const TrajId id : window) tally[id] += 1.0;
  }
  ASSERT_FALSE(tally.empty());
  double tally_max = 0.0;
  for (const auto& [id, spent] : tally) {
    EXPECT_LE(spent, kBudget + 1e-9) << "object " << id;
    tally_max = std::max(tally_max, spent);
  }
  EXPECT_NEAR(per_object_max, tally_max, 1e-9);
  EXPECT_NEAR(per_object_report.epsilon_spent, tally_max, 1e-9);
  // The wholesale ledger tracked alongside shows the pessimism gap: six
  // windows' sequential sum vs the true per-object maximum.
  EXPECT_NEAR(per_object_report.epsilon_wholesale_equivalent, 6.0, 1e-9);
}

TEST(SlidingWindowTest, EvictExhaustedDropsOnlyTheExhaustedObject) {
  // Object 0 leads every window; everyone else is fresh. Budget 2.0 at
  // eps 1.0/window: without eviction, windows 2 and 3 are refused whole;
  // with eviction, only object 0 is dropped and 9 trajectories still
  // publish per window.
  const std::string csv = RecurringLeaderCsv(/*windows=*/4,
                                             /*fresh_per_window=*/9);
  const double kBudget = 2.0;

  auto run = [&](bool evict, frt::testing::ServiceCapture::Feed* capture,
                 StreamReport* report, const char* label) {
    StreamConfig config = BaseConfig(10, 0);
    config.per_object_budget = kBudget;
    config.evict_exhausted = evict;
    OneFeedRun result = RunOneFeed(OneFeedConfig(config), csv, kSeed);
    ASSERT_TRUE(result.status.ok()) << label << ": "
                                    << result.status.ToString();
    *capture = std::move(result.published);
    *report = result.report;
    // Whatever the mode, object 0 never exceeds its budget.
    EXPECT_LE(result.ledger.spent(0), kBudget + 1e-9) << label;
  };

  frt::testing::ServiceCapture::Feed refusing_capture, evicting_capture;
  StreamReport refusing_report, evicting_report;
  run(false, &refusing_capture, &refusing_report, "refusing");
  run(true, &evicting_capture, &evicting_report, "evicting");

  // Without eviction: whole windows drop once object 0 is exhausted.
  EXPECT_EQ(refusing_report.windows_published, 2u);
  EXPECT_EQ(refusing_report.windows_refused, 2u);
  EXPECT_EQ(refusing_report.trajectories_refused, 20u);
  EXPECT_EQ(refusing_report.trajectories_evicted, 0u);
  EXPECT_TRUE(StreamHadRefusals(refusing_report));

  // With eviction: every window publishes; only object 0's trajectory is
  // dropped from windows 2 and 3.
  EXPECT_EQ(evicting_report.windows_published, 4u);
  EXPECT_EQ(evicting_report.windows_refused, 0u);
  EXPECT_EQ(evicting_report.trajectories_evicted, 2u);
  EXPECT_EQ(evicting_report.trajectories_published, 38u);
  // Eviction still counts as dropping data on budget — exit code 3.
  EXPECT_TRUE(StreamHadRefusals(evicting_report));
  ASSERT_EQ(evicting_capture.window_ids.size(), 4u);
  for (size_t w = 0; w < 4; ++w) {
    const auto& ids = evicting_capture.window_ids[w];
    const bool has_leader =
        std::find(ids.begin(), ids.end(), TrajId{0}) != ids.end();
    EXPECT_EQ(has_leader, w < 2) << "window " << w;
    EXPECT_EQ(ids.size(), w < 2 ? 10u : 9u) << "window " << w;
  }
  ASSERT_EQ(evicting_capture.reports.size(), 4u);
  EXPECT_EQ(evicting_capture.reports[2].trajectories_evicted, 1u);
  EXPECT_EQ(evicting_capture.reports[3].trajectories_evicted, 1u);
}

TEST(SlidingWindowTest, SlidingWindowsChargePerAppearance) {
  // Overlap means re-publication: with window 10 / stride 5 an object is
  // released by up to two windows, and the per-object ledger must bill
  // both appearances. 20 arrivals -> windows [0,10) [5,15) [10,20);
  // objects 5..9 appear twice.
  StreamConfig config = BaseConfig(10, 5);
  config.per_object_budget = 10.0;  // ample: nothing refused
  const OneFeedRun run =
      RunOneFeed(OneFeedConfig(config), SyntheticCsv(20), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  std::unordered_map<TrajId, double> tally;
  for (const auto& window : run.published.window_ids) {
    for (const TrajId id : window) tally[id] += 1.0;
  }
  for (const auto& [id, spent] : tally) {
    EXPECT_NEAR(run.ledger.spent(id), spent, 1e-9)
        << "object " << id;
  }
  EXPECT_NEAR(run.ledger.max_spent(), 2.0, 1e-9);
  EXPECT_EQ(run.report.windows_refused, 0u);
}

}  // namespace
}  // namespace frt
