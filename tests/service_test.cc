// Unit and end-to-end coverage of the multi-feed serving layer
// (src/service): routing and per-feed window order, count/deadline/final
// closure, idle eviction with budget carry, abort paths, determinism
// across pool sizes, and the single telemetry store behind the metrics
// file, /feedz, /metrics and the final report.

#include "service/dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "service/metrics_exporter.h"
#include "stream/ingest.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::ServiceCapture;
using frt::testing::SyntheticCsv;
using frt::testing::TempDirectory;
using std::chrono::milliseconds;

constexpr uint64_t kSeed = 20260730;

ServiceConfig SmallServiceConfig(size_t window) {
  ServiceConfig config;
  config.stream.window_size = window;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;
  config.pool_threads = 2;
  return config;
}

/// Parses the deterministic synthetic CSV into ready-to-offer
/// trajectories.
std::vector<Trajectory> SyntheticTrajectories(int arrivals) {
  std::istringstream in(SyntheticCsv(arrivals));
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

TEST(ServiceTest, MultiplexedFeedsPublishEveryWindowPerFeedInOrder) {
  const std::vector<std::string> feed_names = {"alpha", "beta", "gamma",
                                               "delta"};
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(20), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  // Round-robin interleave: every feed receives the same 60 arrivals.
  for (const Trajectory& t : trajs) {
    for (const auto& feed : feed_names) {
      ASSERT_TRUE(service.Offer(feed, t));
    }
  }
  ASSERT_TRUE(service.Finish().ok());

  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.feeds, 4u);
  EXPECT_EQ(report.sessions_created, 4u);
  EXPECT_EQ(report.peak_active_sessions, 4u);
  EXPECT_EQ(report.sessions_evicted, 0u);
  EXPECT_EQ(report.windows_published, 12u);  // 3 per feed
  EXPECT_EQ(report.windows_refused, 0u);
  EXPECT_EQ(report.trajectories_in, 240u);
  EXPECT_EQ(report.trajectories_published, 240u);
  ASSERT_EQ(report.feeds_detail.size(), 4u);
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    EXPECT_EQ(feed.sessions, 1u);
    EXPECT_EQ(feed.stream.windows_published, 3u);
    EXPECT_EQ(feed.stream.trajectories_published, 60u);
    // Per-feed latency detail mirrors the service-wide fields: ordered
    // quantiles, and no feed's max can exceed the service-wide max.
    EXPECT_GT(feed.close_wait.max_ms, 0.0);
    EXPECT_GT(feed.publish.max_ms, 0.0);
    EXPECT_LE(feed.close_wait.p50_ms, feed.close_wait.p99_ms);
    EXPECT_LE(feed.close_wait.p99_ms, feed.close_wait.max_ms + 1e-9);
    EXPECT_LE(feed.publish.p50_ms, feed.publish.p99_ms);
    EXPECT_LE(feed.publish.p99_ms, feed.publish.max_ms + 1e-9);
    EXPECT_LE(feed.close_wait.max_ms,
              report.stages[kStageCloseWait].max_ms + 1e-9);
    EXPECT_LE(feed.publish.max_ms, report.stages[kStagePublish].max_ms + 1e-9);
  }
  for (const auto& feed : feed_names) {
    const ServiceCapture::Feed& captured = capture.feeds.at(feed);
    ASSERT_EQ(captured.ids.size(), 60u) << feed;
    // Per-feed window order: ids concatenate back to arrival order.
    for (int i = 0; i < 60; ++i) EXPECT_EQ(captured.ids[i], i) << feed;
    ASSERT_EQ(captured.reports.size(), 3u);
    for (size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(captured.reports[w].index, w) << feed;
      EXPECT_EQ(captured.reports[w].close_reason, WindowClose::kCount);
      EXPECT_NEAR(captured.reports[w].epsilon_spent, 1.0, 1e-9);
    }
  }
}

TEST(ServiceTest, DeterministicAcrossPoolSizes) {
  const std::vector<Trajectory> trajs = SyntheticTrajectories(40);
  auto run = [&](unsigned pool_threads) {
    auto capture = std::make_unique<ServiceCapture>();
    ServiceConfig config = SmallServiceConfig(10);
    config.pool_threads = pool_threads;
    ServiceDispatcher service(config, capture->MakeSink());
    EXPECT_TRUE(service.Start(kSeed).ok());
    for (const Trajectory& t : trajs) {
      for (const char* feed : {"f1", "f2", "f3"}) {
        EXPECT_TRUE(service.Offer(feed, t));
      }
    }
    EXPECT_TRUE(service.Finish().ok());
    return capture;
  };
  const auto base = run(1);
  for (const unsigned pool : {2u, 4u}) {
    const auto other = run(pool);
    for (const char* feed : {"f1", "f2", "f3"}) {
      EXPECT_TRUE(ServiceCapture::FeedsEqual(base->feeds.at(feed),
                                             other->feeds.at(feed)))
          << "feed " << feed << " differs at pool=" << pool;
    }
  }
}

TEST(ServiceTest, DeadlineClosesPartialWindowBeforeInputEnds) {
  // window_size 100 would never fill; the 60 ms deadline must close and
  // publish the 5 buffered arrivals while the service is still running.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(5);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.stream.close_after_ms = 60;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("live", t));
  // The input is NOT finished: the only way this window publishes within
  // 5 s is the deadline timer.
  ASSERT_TRUE(capture.WaitForWindows(1, milliseconds(5000)));
  {
    std::lock_guard<std::mutex> lock(capture.mu);
    const ServiceCapture::Feed& feed = capture.feeds.at("live");
    ASSERT_EQ(feed.reports.size(), 1u);
    EXPECT_EQ(feed.reports[0].close_reason, WindowClose::kDeadline);
    EXPECT_EQ(feed.reports[0].trajectories, 5u);
    // The close honored the SLO: waited at least the armed delay, and not
    // wildly past the deadline.
    EXPECT_GT(feed.reports[0].close_wait_ms, 10.0);
  }
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().windows_deadline_closed, 1u);
  EXPECT_EQ(service.report().windows_published, 1u);
}

TEST(ServiceTest, IdleEvictionFlushesSessionAndCarriesBudgetIntoRevival) {
  // Wholesale budget of 1.0 at eps 1.0/window: generation 1 publishes its
  // flushed window and exhausts the budget; the revived generation 2 must
  // inherit that spend and refuse its window.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(6);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.stream.total_budget = 1.0;
  config.idle_evict_ms = 50;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("taxi", trajs[i]));
  // Idle long enough for the eviction sweep to flush and tear down.
  ASSERT_TRUE(capture.WaitForWindows(1, milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));
  // Revive the feed with fresh arrivals.
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(service.Offer("taxi", trajs[i]));
  ASSERT_TRUE(service.Finish().ok());

  const ServiceSnapshot& report = service.report();
  EXPECT_GE(report.sessions_evicted, 1u);
  ASSERT_EQ(report.feeds_detail.size(), 1u);
  const ServiceSnapshot::Feed& feed = report.feeds_detail[0];
  EXPECT_GE(feed.sessions, 2u);
  EXPECT_EQ(feed.stream.windows_published, 1u);  // generation 1's flush
  EXPECT_EQ(feed.stream.windows_refused, 1u);    // generation 2, carried
  EXPECT_NEAR(feed.stream.epsilon_spent, 1.0, 1e-9);
  EXPECT_TRUE(ServiceHadRefusals(report));
}

TEST(ServiceTest, IdleEvictionWaitsForThePendingPublish) {
  // A dispatcher round absorbs finished windows, submits the next ones and
  // only then publishes. Feed "idle" goes quiet after a partial window,
  // which its idle eviction closes and submits while feed "busy" keeps a
  // deep backlog (a slow sink holds each of its windows for 2 ms). Between
  // the absorb of idle's window and that round's publish, idle's backlog
  // is empty and its job has completed. The pending publish must keep
  // idle's session from counting as drained: the window is published and
  // charged exactly once, and the session is evicted after it.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(600);
  ServiceCapture capture;
  ServiceSink capture_sink = capture.MakeSink();
  ServiceConfig config = SmallServiceConfig(5);
  config.idle_evict_ms = 30;
  ServiceDispatcher service(
      config, [&capture_sink](const std::string& feed,
                              const Dataset& published,
                              const WindowReport& report) {
        if (feed == "busy") std::this_thread::sleep_for(milliseconds(2));
        return capture_sink(feed, published, report);
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("idle", trajs[i]));
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("busy", t));
  ASSERT_TRUE(service.Finish().ok());

  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.windows_published, 121u);  // idle's 1 + busy's 120
  ASSERT_EQ(report.feeds_detail.size(), 2u);
  const ServiceSnapshot::Feed& idle = report.feeds_detail[0];
  ASSERT_EQ(idle.feed, "idle");
  EXPECT_TRUE(idle.evicted);
  EXPECT_EQ(idle.stream.windows_published, 1u);
  EXPECT_EQ(idle.stream.trajectories_published, 3u);
  EXPECT_NEAR(idle.stream.epsilon_spent, 1.0, 1e-9);  // charged once
  ASSERT_EQ(capture.feeds.count("idle"), 1u);
  ASSERT_EQ(capture.feeds.at("idle").reports.size(), 1u);
  EXPECT_EQ(capture.feeds.at("idle").reports[0].close_reason,
            WindowClose::kFinal);
  EXPECT_EQ(capture.feeds.at("idle").ids, (std::vector<TrajId>{0, 1, 2}));
  EXPECT_EQ(capture.feeds.at("busy").reports.size(), 120u);
}

TEST(ServiceTest, NextWindowRunsWhileThePreviousOneSinks) {
  // One feed, as frt_stream runs it, four windows. Window 0's sink holds
  // the dispatcher until every arrival is queued, so the later windows
  // close from the queue, mostly long before their predecessor's job
  // ends. When window k's sink starts with window k+1 already closed (its
  // "assemble" span is in the trace), window k+1 was closed when k's job
  // was absorbed, so it must have been submitted before k is published:
  // the sink then waits, for at most 10 s, until window k+1's anonymize
  // span shows. A dispatcher that published first would only submit
  // window k+1 after the sink, and the wait would time out.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  ASSERT_TRUE(recorder.Start(obs::TraceRecorder::Options{}));
  const auto spans = [&recorder](const char* name) {
    size_t n = 0;
    for (const obs::TraceEvent& e : recorder.Peek().events) {
      if (e.name == name && e.feed == "solo") ++n;
    }
    return n;
  };
  std::vector<Trajectory> trajs = SyntheticTrajectories(160);
  ServiceCapture capture;
  ServiceSink capture_sink = capture.MakeSink();
  std::atomic<bool> all_offered{false};
  size_t overlap_checks = 0;
  size_t overlaps = 0;
  ServiceConfig config = SmallServiceConfig(40);
  config.max_backlog_windows = 1;
  ServiceDispatcher service(
      config, [&](const std::string& feed, const Dataset& published,
                  const WindowReport& report) {
        const auto give_up =
            std::chrono::steady_clock::now() + milliseconds(10000);
        const auto wait_for = [&give_up](const auto& done) {
          while (!done() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(milliseconds(1));
          }
          return done();
        };
        const size_t next = report.index + 1;
        if (report.index == 0) {
          wait_for([&all_offered] { return all_offered.load(); });
        } else if (spans("assemble") > next) {
          ++overlap_checks;
          if (wait_for([&] { return spans("anonymize") > next; })) {
            ++overlaps;
          }
        }
        return capture_sink(feed, published, report);
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (Trajectory& t : trajs) ASSERT_TRUE(service.Offer("solo", std::move(t)));
  all_offered = true;
  ASSERT_TRUE(service.Finish().ok());
  recorder.Stop();

  EXPECT_GE(overlap_checks, 1u);
  EXPECT_EQ(overlaps, overlap_checks)
      << "a closed next window did not run during its predecessor's sink";
  const ServiceCapture::Feed& solo = capture.feeds.at("solo");
  ASSERT_EQ(solo.reports.size(), 4u);
  for (size_t w = 0; w < 4; ++w) EXPECT_EQ(solo.reports[w].index, w);
  ASSERT_EQ(solo.ids.size(), 160u);
  for (int i = 0; i < 160; ++i) EXPECT_EQ(solo.ids[i], i);
}

TEST(ServiceTest, PerObjectBudgetAloneSelectsThePerObjectLedger) {
  // Setting only per_object_budget must enforce it: ids recycle every 10
  // arrivals, so window 1 re-releases window 0's objects, and 1.0 + 1.0
  // exceeds their budget of 1.5.
  std::istringstream csv(SyntheticCsv(20, /*distinct_ids=*/10));
  TrajectoryReader reader(csv);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.per_object_budget = 1.5;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(OfferFeed(reader, "taxi", service).ok());
  ASSERT_TRUE(service.Finish().ok());
  ASSERT_EQ(service.report().feeds_detail.size(), 1u);
  const StreamReport& stream = service.report().feeds_detail[0].stream;
  EXPECT_EQ(stream.windows_published, 1u);
  EXPECT_EQ(stream.windows_refused, 1u);
  EXPECT_NEAR(stream.epsilon_spent, 1.0, 1e-9);  // max per-object spend
  const FeedSession* session = service.session("taxi");
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->ledger().enforcing());
}

TEST(ServiceTest, StartRefusesContradictoryBudgets) {
  // Both budgets set, or eviction without a per-object ledger to evict
  // from: the service refuses to start instead of picking one silently.
  ServiceConfig both = SmallServiceConfig(10);
  both.stream.total_budget = 2.0;
  both.stream.per_object_budget = 2.0;
  ServiceCapture capture;
  ServiceDispatcher both_service(both, capture.MakeSink());
  EXPECT_EQ(both_service.Start(kSeed).code(), StatusCode::kInvalidArgument);

  ServiceConfig evict = SmallServiceConfig(10);
  evict.stream.total_budget = 2.0;
  evict.stream.evict_exhausted = true;
  ServiceDispatcher evict_service(evict, capture.MakeSink());
  EXPECT_EQ(evict_service.Start(kSeed).code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, WindowIndicesContinueAcrossSessionGenerations) {
  // Generation 1 publishes window 0 (idle-eviction flush); the revived
  // generation 2's window must be index 1, not a second index 0.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(6);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.idle_evict_ms = 50;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("gen", trajs[i]));
  ASSERT_TRUE(capture.WaitForWindows(1, std::chrono::milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(service.Offer("gen", trajs[i]));
  ASSERT_TRUE(service.Finish().ok());
  const ServiceCapture::Feed& feed = capture.feeds.at("gen");
  ASSERT_EQ(feed.reports.size(), 2u);
  EXPECT_EQ(feed.reports[0].index, 0u);
  EXPECT_EQ(feed.reports[1].index, 1u);
  ASSERT_EQ(service.report().feeds_detail.size(), 1u);
  EXPECT_GE(service.report().feeds_detail[0].sessions, 2u);
}

TEST(ServiceTest, StopWhenExhaustedEndsServiceAtFirstRefusal) {
  // Wholesale budget 1.0 at eps 1.0/window: window 0 publishes, window 1
  // is refused, and the service must then stop ingesting (Offer fails)
  // instead of refusing windows forever.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(5);
  config.stream.total_budget = 1.0;
  config.stream.stop_when_exhausted = true;
  config.arrival_queue_capacity = 4;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  // An effectively endless feed: recycle the 60 ids round after round
  // (window-aligned, so ids stay unique within each window of 5). Only
  // the stop can end this loop early.
  bool stopped = false;
  for (int round = 0; round < 500 && !stopped; ++round) {
    for (const Trajectory& t : trajs) {
      if (!service.Offer("endless", t)) {
        stopped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(stopped) << "service never stopped ingesting";
  ASSERT_TRUE(service.Finish().ok());  // a clean stop, not an error
  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.windows_published, 1u);
  EXPECT_GE(report.windows_refused, 1u);
  EXPECT_TRUE(ServiceHadRefusals(report));
}

TEST(ServiceTest, PerFeedBudgetsAreIndependentLedgers) {
  // Both feeds get the same wholesale budget of 2.0; each publishes 2 of
  // its 3 windows — proof the ledger is per feed, not shared.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(30);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.total_budget = 2.0;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) {
    ASSERT_TRUE(service.Offer("a", t));
    ASSERT_TRUE(service.Offer("b", t));
  }
  ASSERT_TRUE(service.Finish().ok());
  for (const ServiceSnapshot::Feed& feed : service.report().feeds_detail) {
    EXPECT_EQ(feed.stream.windows_published, 2u) << feed.feed;
    EXPECT_EQ(feed.stream.windows_refused, 1u) << feed.feed;
    EXPECT_NEAR(feed.stream.epsilon_spent, 2.0, 1e-9) << feed.feed;
  }
}

TEST(ServiceTest, BacklogCapPausesIngressButPublishesEverything) {
  // With the tightest possible caps the dispatcher must repeatedly pause
  // ingress (arrival queue fills, Offer blocks) and still publish every
  // window of every feed in order.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(5);
  config.max_in_flight = 1;
  config.max_backlog_windows = 1;
  config.arrival_queue_capacity = 4;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) {
    ASSERT_TRUE(service.Offer("a", t));
    ASSERT_TRUE(service.Offer("b", t));
  }
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().windows_published, 24u);  // 12 per feed
  EXPECT_EQ(service.report().trajectories_published, 120u);
  for (const char* feed : {"a", "b"}) {
    const ServiceCapture::Feed& captured = capture.feeds.at(feed);
    ASSERT_EQ(captured.ids.size(), 60u);
    for (int i = 0; i < 60; ++i) EXPECT_EQ(captured.ids[i], i) << feed;
  }
}

TEST(ServiceTest, DuplicateObjectIdWithinFeedWindowQuarantinesOnlyThatFeed) {
  // A per-feed fault (duplicate id inside one window) must quarantine that
  // feed, not abort the service: Finish() returns OK, the sibling feed
  // publishes everything, and the report names the quarantined feed.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(20);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.Offer("dup", trajs[0]));
  service.Offer("dup", trajs[0]);  // same id, same window -> feed fault
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("ok", t));
  const Status st = service.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();

  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  bool saw_dup = false;
  bool saw_ok = false;
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    if (feed.feed == "dup") {
      saw_dup = true;
      EXPECT_TRUE(feed.quarantined);
      EXPECT_FALSE(feed.quarantine_reason.empty());
      EXPECT_EQ(feed.stream.windows_published, 0u);
    } else if (feed.feed == "ok") {
      saw_ok = true;
      EXPECT_FALSE(feed.quarantined);
      EXPECT_EQ(feed.stream.windows_published, 2u);
      EXPECT_EQ(feed.stream.trajectories_published, 20u);
    }
  }
  EXPECT_TRUE(saw_dup);
  EXPECT_TRUE(saw_ok);
  EXPECT_EQ(capture.feeds.at("ok").ids.size(), 20u);
}

TEST(ServiceTest, OfferQuarantineTearsDownFeedAndKeepsSiblingsRunning) {
  // External quarantine (the ingress tier reporting an untrusted stream)
  // rides the arrival queue: everything the feed offered before the
  // quarantine marker is discarded with its backlog, later offers for the
  // feed are dropped, and sibling feeds are untouched.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(20);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Offer("bad", trajs[static_cast<size_t>(i)]));
  }
  ASSERT_TRUE(service.OfferQuarantine("bad", "frame CRC mismatch"));
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("good", t));
  // Arrivals after the quarantine marker must be ignored, not revive the
  // feed.
  service.Offer("bad", trajs[6]);
  const Status st = service.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();

  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    if (feed.feed == "bad") {
      EXPECT_TRUE(feed.quarantined);
      EXPECT_EQ(feed.quarantine_reason, "frame CRC mismatch");
      EXPECT_EQ(feed.stream.windows_published, 0u);
    } else {
      EXPECT_FALSE(feed.quarantined);
    }
  }
  EXPECT_EQ(capture.feeds.count("bad"), 0u);
  EXPECT_EQ(capture.feeds.at("good").ids.size(), 20u);
}

TEST(ServiceTest, OfferQuarantinePublishesClosedWindowsAndDropsTheTail) {
  // The output stops at the fault: the two windows the feed closed before
  // the marker still publish (and are charged); the five uncovered
  // arrivals read ahead of it are dropped — never published or charged.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(25);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("bad", t));
  ASSERT_TRUE(service.OfferQuarantine("bad", "line 26: parse error"));
  ASSERT_TRUE(service.Finish().ok());

  ASSERT_EQ(service.report().feeds_detail.size(), 1u);
  const ServiceSnapshot::Feed& feed = service.report().feeds_detail[0];
  EXPECT_TRUE(feed.quarantined);
  EXPECT_EQ(feed.stream.windows_closed, 2u);
  EXPECT_EQ(feed.stream.windows_published, 2u);
  EXPECT_NEAR(feed.stream.epsilon_spent, 2.0, 1e-9);
  const ServiceCapture::Feed& published = capture.feeds.at("bad");
  ASSERT_EQ(published.ids.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(published.ids[i], i);
  // The drained session was retired.
  EXPECT_EQ(service.session("bad"), nullptr);
}

TEST(ServiceTest, SubmitRotationStaysFairAcrossFeeds) {
  // With one worker and one in-flight slot, SubmitReady submits one window
  // at a time from the front of the ready FIFO, and a served feed rejoins
  // at the back only when its job completes. No feed may lap the others:
  // at every prefix of the global publish sequence the per-feed publish
  // counts stay within a small constant of each other (a starvation bug —
  // e.g. a served feed rejoining at the front — would let one feed publish
  // its whole backlog first). The 1-worker pool runs each job inline on
  // the dispatcher thread, so its completion lands in the inbox without a
  // wait to wake.
  const std::vector<std::string> feed_names = {"f0", "f1", "f2", "f3",
                                               "f4", "f5", "f6", "f7"};
  const std::vector<Trajectory> trajs = SyntheticTrajectories(16);
  ServiceConfig config = SmallServiceConfig(4);  // 4 windows per feed
  config.pool_threads = 1;
  config.max_in_flight = 1;
  std::mutex mu;
  std::vector<std::string> publish_sequence;
  ServiceDispatcher service(
      config, [&](const std::string& feed, const Dataset&,
                  const WindowReport&) -> Status {
        std::lock_guard<std::mutex> lock(mu);
        publish_sequence.push_back(feed);
        return Status::OK();
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  // Interleaved arrivals: every feed's backlog grows in lockstep.
  for (const Trajectory& t : trajs) {
    for (const auto& feed : feed_names) ASSERT_TRUE(service.Offer(feed, t));
  }
  ASSERT_TRUE(service.Finish().ok());
  ASSERT_EQ(publish_sequence.size(), feed_names.size() * 4);
  std::map<std::string, size_t> counts;
  for (const std::string& feed : publish_sequence) {
    ++counts[feed];
    size_t min_count = publish_sequence.size();
    size_t max_count = 0;
    for (const auto& name : feed_names) {
      const auto it = counts.find(name);
      const size_t c = it == counts.end() ? 0 : it->second;
      min_count = std::min(min_count, c);
      max_count = std::max(max_count, c);
    }
    EXPECT_LE(max_count - min_count, 2u)
        << "feed " << feed << " lapped the rotation";
  }
}

TEST(ServiceTest, RotationSurvivesQuarantineCompaction) {
  // Quarantining feeds mid-run dirties the rotation order; the lazy
  // compaction must keep granting to every surviving feed (a stale index
  // or dropped anchor would starve or crash).
  const std::vector<Trajectory> trajs = SyntheticTrajectories(12);
  ServiceConfig config = SmallServiceConfig(4);
  config.pool_threads = 1;
  config.max_in_flight = 1;
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int round = 0; round < 12; ++round) {
    for (int f = 0; f < 6; ++f) {
      ASSERT_TRUE(service.Offer("q" + std::to_string(f),
                                trajs[static_cast<size_t>(round)]));
    }
    if (round == 5) {
      // Knock out half the rotation while backlogs are non-empty.
      ASSERT_TRUE(service.OfferQuarantine("q1", "fault"));
      ASSERT_TRUE(service.OfferQuarantine("q3", "fault"));
      ASSERT_TRUE(service.OfferQuarantine("q5", "fault"));
    }
  }
  ASSERT_TRUE(service.Finish().ok());
  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 3u);
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    const bool odd = (feed.feed.back() - '0') % 2 == 1;
    EXPECT_EQ(feed.quarantined, odd) << feed.feed;
    if (!odd) {
      // Survivors publish their full stream: 12 arrivals = 3 windows.
      EXPECT_EQ(feed.stream.windows_published, 3u) << feed.feed;
      EXPECT_EQ(feed.stream.trajectories_published, 12u) << feed.feed;
    }
  }
}

TEST(ServiceTest, QuarantinedFeedRetiresWhenRefusalsDrainItsBacklog) {
  // Wholesale budget 1.0 at eps 1.0 per window. Windows 1 and 2 close, and
  // the quarantine marker lands, while window 0 runs; once window 0's
  // spend is charged, both are refused on the budget. Those refusals
  // drain the backlog without a job, so no completion will ever fire for
  // them: the quarantined session must retire in the round that refused
  // them, and nothing after window 0 is published.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(35);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.total_budget = 1.0;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("q", t));
  ASSERT_TRUE(service.OfferQuarantine("q", "fault after window 2"));
  ASSERT_TRUE(service.Finish().ok());

  EXPECT_EQ(service.session("q"), nullptr);
  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.windows_published, 1u);
  EXPECT_EQ(report.windows_refused, 2u);
  EXPECT_EQ(report.trajectories_refused, 20u);
  ASSERT_EQ(report.feeds_detail.size(), 1u);
  const ServiceSnapshot::Feed& feed = report.feeds_detail[0];
  EXPECT_TRUE(feed.quarantined);
  EXPECT_EQ(feed.stream.windows_closed, 3u);  // the 5-arrival tail dropped
  EXPECT_EQ(feed.stream.windows_refused, 2u);
  EXPECT_NEAR(feed.stream.epsilon_spent, 1.0, 1e-9);
  const ServiceCapture::Feed& published = capture.feeds.at("q");
  ASSERT_EQ(published.reports.size(), 1u);
  EXPECT_EQ(published.reports[0].index, 0u);
  ASSERT_EQ(published.ids.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(published.ids[i], i);
}

TEST(ServiceTest, SnapshotBoardTicksWhileTheLastWindowDrains) {
  // Fewer arrivals than window_size: the only window closes inside
  // Finish(), and its audited job spans many 1 ms snapshot intervals. The
  // board must keep ticking while that job drains, so a watcher polling
  // Introspect() sees at least two distinct snapshots with the window in
  // flight and the run not yet finished.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(400);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(1000);
  config.metrics_interval_ms = 1;
  config.stream.batch.audit.enabled = true;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  // Start() returns with the first snapshot on the board: the watcher
  // below may read it before the dispatcher thread has run at all.
  ASSERT_NE(service.Introspect(), nullptr);
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("tail", t));
  std::atomic<bool> finished{false};
  std::vector<uint64_t> draining_seqs;
  std::thread watcher([&] {
    while (!finished.load()) {
      const std::shared_ptr<const ServiceSnapshot> s = service.Introspect();
      if (s->in_flight == 1 && !s->finished &&
          (draining_seqs.empty() || draining_seqs.back() != s->seq)) {
        draining_seqs.push_back(s->seq);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const Status st = service.Finish();
  finished = true;
  watcher.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.report().windows_published, 1u);
  EXPECT_GE(draining_seqs.size(), 2u)
      << "the snapshot board stalled while the last window drained";
}

TEST(ServiceTest, QuarantineOfUnknownFeedStillCountsInReport) {
  // The ingress tier can quarantine a feed the dispatcher never routed
  // (its very first frame was the corrupt one). The report must still
  // name it so the operator sees why the stream is missing.
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.OfferQuarantine("ghost", "first frame corrupt"));
  ASSERT_TRUE(service.Finish().ok());
  const ServiceSnapshot& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  ASSERT_EQ(report.feeds_detail.size(), 1u);
  EXPECT_EQ(report.feeds_detail[0].feed, "ghost");
  EXPECT_TRUE(report.feeds_detail[0].quarantined);
}

TEST(ServiceTest, SinkErrorAbortsService) {
  const std::vector<Trajectory> trajs = SyntheticTrajectories(30);
  ServiceConfig config = SmallServiceConfig(5);
  ServiceDispatcher service(
      config, [](const std::string&, const Dataset&,
                 const WindowReport&) -> Status {
        return Status::IOError("sink full");
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  bool offer_failed = false;
  for (int round = 0; round < 200 && !offer_failed; ++round) {
    for (const Trajectory& t : trajs) {
      if (!service.Offer("x" + std::to_string(round), t)) {
        offer_failed = true;  // ingress observed the abort
        break;
      }
    }
  }
  const Status st = service.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(ServiceTest, FinishWithoutArrivalsIsCleanAndEmpty) {
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().feeds, 0u);
  EXPECT_EQ(service.report().windows_published, 0u);
}

// ---- One telemetry store: every rendering reads the same registry and
// the same final snapshot.

/// Value of ` key=` in a key=value metrics line (empty when absent).
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  at += needle.size();
  return line.substr(at, line.find(' ', at) - at);
}

uint64_t Counter(obs::Registry& registry, const char* name) {
  return registry.GetCounter(name)->value();
}

obs::Histogram StageCell(obs::Registry& registry, ServiceStage stage) {
  return registry
      .GetHistogram(obs::WithLabel("frt_stage_ms", "stage",
                                   kServiceStageNames[stage]))
      ->Snapshot();
}

TEST(ServiceTelemetryTest, ShutdownRenderingsShareOneSource) {
  // Wholesale budget 2.0 at eps 1.0/window: the hog's third window is
  // refused. The idle feed publishes once, is evicted, and is revived by
  // later arrivals; "bad" is quarantined.
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.total_budget = 2.0;
  config.idle_evict_ms = 50;
  config.metrics_interval_ms = 20;
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  obs::Registry& registry = *service.config().registry;
  const TempDirectory dir;
  const std::string path = dir.path() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  options.per_feed = true;
  MetricsExporter exporter(options, service.snapshots());
  ASSERT_TRUE(exporter.Start().ok());

  const std::vector<Trajectory> trajs = SyntheticTrajectories(30);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("idle", trajs[i]));
  ASSERT_TRUE(capture.WaitForWindows(1, milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));  // evicted by now
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(service.Offer("idle", trajs[i]));
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("hog", t));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(service.Offer("bad", trajs[i]));
  ASSERT_TRUE(service.OfferQuarantine("bad", "frame CRC mismatch"));
  ASSERT_TRUE(service.Finish().ok());
  exporter.Stop();

  // The report is the final snapshot: the object Introspect() returns.
  const ServiceSnapshot& report = service.report();
  const std::shared_ptr<const ServiceSnapshot> final_snapshot =
      service.Introspect();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_EQ(&report, final_snapshot.get());
  EXPECT_EQ(report.seq, final_snapshot->seq);
  EXPECT_TRUE(report.finished);
  ASSERT_EQ(report.feeds, 3u);
  EXPECT_EQ(report.feeds_quarantined, 1u);
  EXPECT_GE(report.sessions_evicted, 1u);
  EXPECT_GE(report.windows_refused, 1u);
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    if (feed.feed == "idle") {
      EXPECT_GE(feed.sessions, 2u);  // evicted, then revived
      EXPECT_EQ(feed.stream.windows_published, 2u);
    }
    EXPECT_EQ(feed.quarantined, feed.feed == "bad") << feed.feed;
  }

  // Per-feed counters sum to the registry totals.
  StreamReport sum;
  uint64_t sessions = 0;
  size_t quarantined = 0;
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    sum.windows_closed += feed.stream.windows_closed;
    sum.windows_published += feed.stream.windows_published;
    sum.windows_refused += feed.stream.windows_refused;
    sum.windows_deadline_closed += feed.stream.windows_deadline_closed;
    sum.trajectories_in += feed.stream.trajectories_in;
    sum.trajectories_published += feed.stream.trajectories_published;
    sum.trajectories_refused += feed.stream.trajectories_refused;
    sum.trajectories_evicted += feed.stream.trajectories_evicted;
    sessions += feed.sessions;
    if (feed.quarantined) ++quarantined;
  }
  EXPECT_GT(sum.trajectories_refused, 0u);
  const struct {
    const char* key;  // frt_metrics field ("" when the line has none)
    const char* counter;
    size_t summed;
  } counters[] = {
      {"windows_closed", "frt_serve_windows_closed_total",
       sum.windows_closed},
      {"windows_published", "frt_serve_windows_published_total",
       sum.windows_published},
      {"windows_refused", "frt_serve_windows_refused_total",
       sum.windows_refused},
      {"windows_deadline_closed", "frt_serve_windows_deadline_closed_total",
       sum.windows_deadline_closed},
      {"trajs_in", "frt_serve_trajectories_in_total", sum.trajectories_in},
      {"trajs_published", "frt_serve_trajectories_published_total",
       sum.trajectories_published},
      {"", "frt_serve_trajectories_refused_total", sum.trajectories_refused},
      {"", "frt_serve_trajectories_evicted_total", sum.trajectories_evicted},
      {"", "frt_serve_sessions_created_total", sessions},
      {"feeds_quarantined", "frt_serve_feeds_quarantined_total",
       quarantined},
  };

  // The exporter's last line set renders the same final snapshot.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  size_t last = lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("frt_metrics ", 0) == 0) last = i;
  }
  ASSERT_LT(last, lines.size());
  const std::string& metrics = lines[last];
  EXPECT_EQ(Field(metrics, "seq"), std::to_string(report.seq));
  for (const auto& c : counters) {
    EXPECT_EQ(Counter(registry, c.counter), c.summed) << c.counter;
    if (*c.key != '\0') {
      EXPECT_EQ(Field(metrics, c.key), std::to_string(c.summed)) << c.key;
    }
  }

  // frt_feed epsilon strings == /feedz's, feed by feed.
  const std::string feedz = RenderFeedz(report);
  const std::string prometheus = registry.RenderPrometheus();
  size_t feed_lines = 0;
  size_t stage = 0;
  for (size_t i = last + 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("frt_feed ", 0) == 0) {
      ++feed_lines;
      const std::string expected =
          "{\"feed\":\"" + Field(line, "feed") + "\",\"eps_spent\":\"" +
          Field(line, "eps_spent") + "\",\"eps_remaining\":\"" +
          Field(line, "eps_remaining") + "\"";
      EXPECT_NE(feedz.find(expected), std::string::npos)
          << expected << " not in " << feedz;
    } else if (line.rfind("frt_stage ", 0) == 0) {
      // frt_stage count == /metrics frt_stage_ms_count, stage by stage.
      ASSERT_LT(stage, static_cast<size_t>(kNumServiceStages));
      EXPECT_EQ(Field(line, "stage"), kServiceStageNames[stage]);
      const std::string series =
          std::string("frt_stage_ms_count{stage=\"") +
          kServiceStageNames[stage] + "\"} " + Field(line, "count") + "\n";
      EXPECT_NE(prometheus.find(series), std::string::npos) << series;
      ++stage;
    }
  }
  EXPECT_EQ(feed_lines, 3u);
  EXPECT_EQ(stage, static_cast<size_t>(kNumServiceStages));
  EXPECT_EQ(report.stages[kStageCloseWait].count, report.windows_published);
}

TEST(ServiceTelemetryTest, DefaultConfigDispatchersKeepTheirOwnTelemetry) {
  // Back to back in one process, each with a default (private) registry:
  // neither sees the other's counts.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(40);
  for (const int feeds : {3, 1}) {
    ServiceCapture capture;
    ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
    ASSERT_TRUE(service.Start(kSeed).ok());
    for (const Trajectory& t : trajs) {
      for (int f = 0; f < feeds; ++f) {
        ASSERT_TRUE(service.Offer("feed" + std::to_string(f), t));
      }
    }
    ASSERT_TRUE(service.Finish().ok());
    const ServiceSnapshot& report = service.report();
    obs::Registry& registry = *service.config().registry;
    EXPECT_NE(&registry, &obs::Registry::Default());
    EXPECT_EQ(report.windows_published, 4u * feeds);
    EXPECT_EQ(Counter(registry, "frt_serve_windows_published_total"),
              report.windows_published);
    EXPECT_EQ(Counter(registry, "frt_serve_trajectories_in_total"),
              report.trajectories_in);
    EXPECT_EQ(Counter(registry, "frt_serve_sessions_created_total"),
              static_cast<uint64_t>(feeds));
    EXPECT_EQ(StageCell(registry, kStagePublish).count(),
              report.windows_published);
  }
}

// ---- One metrics clock, one staleness rule: the exporter writes each
// snapshot the dispatcher publishes, and StaleAgeMs decides staleness for
// the exporter, /healthz and /readyz alike.

/// Polls `done` every millisecond for up to 10 s.
template <typename Pred>
bool Eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

/// The seq of every frt_metrics line of the file at `path`, in order.
std::vector<uint64_t> MetricsSeqs(const std::string& path) {
  std::ifstream in(path);
  std::vector<uint64_t> seqs;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("frt_metrics ", 0) == 0) {
      seqs.push_back(std::stoull(Field(line, "seq")));
    }
  }
  return seqs;
}

/// Index of the first seq that does not exceed its predecessor, or
/// seqs.size() when they strictly increase.
size_t FirstNonIncreasing(const std::vector<uint64_t>& seqs) {
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] <= seqs[i - 1]) return i;
  }
  return seqs.size();
}

TEST(SnapshotStalenessTest, StaleOnlyPastFiveIntervalsOrFiveSeconds) {
  using std::chrono::seconds;
  ServiceSnapshot s;
  s.published_at = std::chrono::steady_clock::now();
  const auto stale_at = [&](std::chrono::steady_clock::duration age) {
    return s.published_at + age > StaleAfter(s);
  };
  // Fresh, then stale past max(5 x 1 s, 5 s) = 5 s.
  s.metrics_interval_ms = 1000;
  EXPECT_FALSE(stale_at(seconds(0)));
  EXPECT_FALSE(stale_at(seconds(5)));
  EXPECT_TRUE(stale_at(milliseconds(5001)));
  // A fast cadence still gets the 5 s floor.
  s.metrics_interval_ms = 5;
  EXPECT_FALSE(stale_at(seconds(5)));
  EXPECT_TRUE(stale_at(milliseconds(5001)));
  // A slow one is fresh for five of its intervals.
  s.metrics_interval_ms = 4000;
  EXPECT_FALSE(stale_at(seconds(20)));
  EXPECT_TRUE(stale_at(milliseconds(20001)));
  // The final snapshot never goes stale.
  s.finished = true;
  EXPECT_FALSE(stale_at(seconds(3600)));
  EXPECT_EQ(StaleAfter(s), std::chrono::steady_clock::time_point::max());
  // Nor, by saturation, does one published near the end of the clock's
  // range.
  s.finished = false;
  s.published_at = std::chrono::steady_clock::time_point::max() - seconds(1);
  EXPECT_EQ(StaleAfter(s), std::chrono::steady_clock::time_point::max());
}

TEST(SnapshotStalenessTest, ARetunedIntervalIsVisibleThroughTheNextSnapshot) {
  // Lengthening the cadence must reach the board at once: a board still
  // carrying 5 ms would read stale 5 s on, long before the next 60 s tick.
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.metrics_interval_ms = 5;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  EXPECT_EQ(service.Introspect()->metrics_interval_ms, 5);
  service.SetMetricsIntervalMs(60000);
  ASSERT_TRUE(Eventually(
      [&] { return service.Introspect()->metrics_interval_ms == 60000; }));
  const std::shared_ptr<const ServiceSnapshot> slow = service.Introspect();
  EXPECT_EQ(StaleAfter(*slow), slow->published_at + std::chrono::seconds(300));
  // /control takes any positive value; the clock clamps it to a day, so
  // its deadlines stay in range.
  service.SetMetricsIntervalMs(std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(Eventually([&] {
    return service.Introspect()->metrics_interval_ms == kMaxMetricsIntervalMs;
  }));
  EXPECT_EQ(StaleAfter(*service.Introspect()),
            service.Introspect()->published_at +
                5 * std::chrono::milliseconds(kMaxMetricsIntervalMs));
  service.SetMetricsIntervalMs(5);
  ASSERT_TRUE(Eventually(
      [&] { return service.Introspect()->metrics_interval_ms == 5; }));
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().metrics_interval_ms, 5);
}

TEST(ServiceTelemetryTest, SetMetricsIntervalMsRetunesTheExporterCadence) {
  // Retune from one tick a minute to 5 ms on the dispatcher alone: the
  // exporter follows its snapshots, so lines come long before 60 s.
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.metrics_interval_ms = 60000;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  const TempDirectory dir;
  const std::string path = dir.path() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  MetricsExporter exporter(options, service.snapshots());
  ASSERT_TRUE(exporter.Start().ok());
  // The start snapshot, then nothing for a minute.
  ASSERT_TRUE(Eventually([&] { return exporter.lines_written() == 1; }));
  service.SetMetricsIntervalMs(5);
  EXPECT_TRUE(Eventually([&] { return exporter.lines_written() >= 4; }))
      << "the retune did not reach the exporter's cadence";
  ASSERT_TRUE(service.Finish().ok());
  exporter.Stop();
  const std::vector<uint64_t> seqs = MetricsSeqs(path);
  EXPECT_EQ(FirstNonIncreasing(seqs), seqs.size());
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), service.report().seq);
}

TEST(ServiceTelemetryTest, ExporterNeverRepeatsASeqAtAFiveMsCadence) {
  // A healthy dispatcher under load at a 5 ms cadence: every line shows a
  // new snapshot (a repeated seq is the wedged-dispatcher signal), and
  // the file ends with the final one.
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.metrics_interval_ms = 5;
  config.stream.batch.audit.enabled = true;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  const TempDirectory dir;
  const std::string path = dir.path() + "/metrics.log";
  MetricsExporter::Options options;
  options.path = path;
  MetricsExporter exporter(options, service.snapshots());
  ASSERT_TRUE(exporter.Start().ok());
  const std::vector<Trajectory> trajs = SyntheticTrajectories(200);
  for (const Trajectory& t : trajs) {
    for (int f = 0; f < 8; ++f) {
      ASSERT_TRUE(service.Offer("feed" + std::to_string(f), t));
    }
  }
  // Idle ticks too: the board keeps ticking with nothing to publish.
  std::this_thread::sleep_for(milliseconds(200));
  ASSERT_TRUE(service.Finish().ok());
  exporter.Stop();
  const std::vector<uint64_t> seqs = MetricsSeqs(path);
  ASSERT_GE(seqs.size(), 20u);
  const size_t bad = FirstNonIncreasing(seqs);
  EXPECT_EQ(bad, seqs.size())
      << "seq " << seqs[bad] << " after " << seqs[bad - 1] << " (line "
      << bad << " of " << seqs.size() << ")";
  EXPECT_EQ(seqs.back(), service.report().seq);
  EXPECT_EQ(exporter.lines_written(), seqs.size());
}

// ---- Single-feed time-based closure: frt_stream's --close-after-ms path,
// a one-feed dispatcher fed by a reader thread.

TEST(StreamDeadlineTest, DeadlineClosesPartialWindowOnTrickleFeed) {
  frt::testing::BlockingFeed feed;
  TrajectoryReader reader(feed.stream());
  StreamConfig config;
  config.window_size = 100;
  config.close_after_ms = 60;
  config.batch.pipeline.m = 3;
  ServiceCapture capture;
  ServiceDispatcher service(frt::testing::OneFeedConfig(config),
                            capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  std::thread reader_thread([&] {
    EXPECT_TRUE(OfferFeed(reader, "stream", service).ok());
  });
  // Two complete trajectories (the second id's first line completes the
  // first), then silence: only the deadline can publish them.
  feed.Append(SyntheticCsv(3));
  EXPECT_TRUE(capture.WaitForWindows(1, milliseconds(5000)))
      << "deadline closure never fired";
  feed.End();
  reader_thread.join();
  ASSERT_TRUE(service.Finish().ok());

  ASSERT_EQ(service.report().feeds_detail.size(), 1u);
  const StreamReport& report = service.report().feeds_detail[0].stream;
  EXPECT_EQ(report.trajectories_in, 3u);
  EXPECT_EQ(report.trajectories_published, 3u);
  EXPECT_GE(report.windows_deadline_closed, 1u);
  const std::vector<WindowReport>& windows = capture.feeds["stream"].reports;
  ASSERT_GE(windows.size(), 2u);
  EXPECT_EQ(windows.front().close_reason, WindowClose::kDeadline);
  EXPECT_EQ(windows.back().close_reason, WindowClose::kFinal);
}

TEST(StreamDeadlineTest, CountClosureStillWinsWhenFeedIsFast) {
  // A fast finite feed with a generous deadline behaves exactly like an
  // untimed one: every window closes by count (plus the final tail).
  StreamConfig config;
  config.window_size = 100;
  config.close_after_ms = 60000;
  config.batch.pipeline.m = 3;
  const frt::testing::OneFeedRun run = frt::testing::RunOneFeed(
      frt::testing::OneFeedConfig(config), SyntheticCsv(250), kSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 3u);
  EXPECT_EQ(report.windows_deadline_closed, 0u);
  const std::vector<WindowReport>& windows = run.published.reports;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].close_reason, WindowClose::kCount);
  EXPECT_EQ(windows[2].close_reason, WindowClose::kFinal);
  EXPECT_EQ(run.published.ids.size(), 250u);
}

}  // namespace
}  // namespace frt
