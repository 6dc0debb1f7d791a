// obs::Registry: counter/gauge/histogram-cell semantics, the Prometheus
// text exposition contract (TYPE/HELP lines, label escaping, summary
// rendering, monotone counters across scrapes), and concurrent-writer
// safety of HistogramCell.

#include "obs/registry.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/histogram.h"

namespace frt::obs {
namespace {

/// All lines of `text` that start with `prefix`.
std::vector<std::string> LinesWithPrefix(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
    pos = end + 1;
  }
  return out;
}

TEST(RegistryTest, CounterIncrementsMonotonically) {
  Registry registry;
  Counter* c = registry.GetCounter("frt_test_events_total", "events");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(RegistryTest, ReRegistrationReturnsSameObject) {
  Registry registry;
  Counter* a = registry.GetCounter("frt_test_total", "first help");
  Counter* b = registry.GetCounter("frt_test_total", "second help");
  EXPECT_EQ(a, b);
  a->Inc(7);
  EXPECT_EQ(b->value(), 7u);
  // First help string wins.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP frt_test_total first help"),
            std::string::npos);
  EXPECT_EQ(text.find("second help"), std::string::npos);
}

TEST(RegistryTest, KindMismatchReturnsNull) {
  Registry registry;
  ASSERT_NE(registry.GetCounter("frt_test_metric"), nullptr);
  EXPECT_EQ(registry.GetGauge("frt_test_metric"), nullptr);
  EXPECT_EQ(registry.GetHistogram("frt_test_metric"), nullptr);
  // The original registration is untouched by the failed lookups.
  EXPECT_NE(registry.GetCounter("frt_test_metric"), nullptr);
}

TEST(RegistryTest, GaugeIsLastWriteWins) {
  Registry registry;
  Gauge* g = registry.GetGauge("frt_test_depth", "queue depth");
  ASSERT_NE(g, nullptr);
  g->Set(3.5);
  g->Set(-1.0);
  EXPECT_EQ(g->value(), -1.0);
}

TEST(RegistryTest, LabelEscapeCoversSpecials) {
  EXPECT_EQ(LabelEscape("plain"), "plain");
  EXPECT_EQ(LabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(LabelEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(LabelEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(WithLabel("frt_stage_ms", "stage", "an\"on"),
            "frt_stage_ms{stage=\"an\\\"on\"}");
}

// ---- Prometheus text exposition conformance (satellite: the scrape the
// CI smoke and any real Prometheus server consume). ----

TEST(RegistryTest, ExpositionEmitsTypeAndHelpPerFamily) {
  Registry registry;
  registry.GetCounter("frt_req_total", "requests")->Inc(3);
  registry.GetGauge("frt_depth", "depth")->Set(2.0);
  registry.GetHistogram("frt_lat_ms", "latency")->Record(10.0);
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP frt_req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE frt_req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("frt_req_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE frt_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("frt_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE frt_lat_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("frt_lat_ms_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("frt_lat_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("frt_lat_ms{quantile=\"0.99\"}"), std::string::npos);
}

TEST(RegistryTest, ExpositionGroupsLabelVariantsUnderOneTypeLine) {
  Registry registry;
  registry.GetHistogram(WithLabel("frt_stage_ms", "stage", "anonymize"),
                        "per-stage latency")->Record(5.0);
  registry.GetHistogram(WithLabel("frt_stage_ms", "stage", "publish"),
                        "per-stage latency")->Record(7.0);
  const std::string text = registry.RenderPrometheus();
  // One TYPE line for the whole family, not one per label variant.
  EXPECT_EQ(LinesWithPrefix(text, "# TYPE frt_stage_ms").size(), 1u);
  EXPECT_NE(text.find("frt_stage_ms{stage=\"anonymize\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("frt_stage_ms_sum{stage=\"publish\"}"),
            std::string::npos);
  EXPECT_NE(text.find("frt_stage_ms_count{stage=\"anonymize\"} 1\n"),
            std::string::npos);
}

TEST(RegistryTest, ExpositionEscapesLabelValues) {
  Registry registry;
  registry.GetCounter(WithLabel("frt_feed_total", "feed", "a\"b\\c\nd"),
                      "per-feed")->Inc();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("frt_feed_total{feed=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
  // The raw newline must never appear inside a series line.
  EXPECT_EQ(text.find("c\nd"), std::string::npos);
}

TEST(RegistryTest, CountersAreMonotoneAcrossScrapes) {
  Registry registry;
  Counter* c = registry.GetCounter("frt_scrape_total", "scrapes");
  c->Inc(5);
  const std::string first = registry.RenderPrometheus();
  c->Inc(2);
  const std::string second = registry.RenderPrometheus();
  EXPECT_NE(first.find("frt_scrape_total 5\n"), std::string::npos);
  EXPECT_NE(second.find("frt_scrape_total 7\n"), std::string::npos);
}

TEST(RegistryTest, GaugeRendersInfinitiesInPrometheusSpelling) {
  Registry registry;
  registry.GetGauge("frt_inf")->Set(
      std::numeric_limits<double>::infinity());
  registry.GetGauge("frt_ninf")->Set(
      -std::numeric_limits<double>::infinity());
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("frt_inf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("frt_ninf -Inf\n"), std::string::npos);
}

// ---- HistogramCell: parity with the single-threaded Histogram and
// multi-writer safety. ----

TEST(HistogramCellTest, SnapshotMatchesPlainHistogram) {
  HistogramCell cell;
  Histogram reference;
  std::mt19937 rng(20260807);
  std::lognormal_distribution<double> d(1.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = d(rng);
    samples.push_back(v);
    cell.Record(v);
    reference.Record(v);
  }
  const Histogram snap = cell.Snapshot();
  EXPECT_EQ(snap.count(), reference.count());
  EXPECT_EQ(snap.min_ms(), reference.min_ms());
  EXPECT_EQ(snap.max_ms(), reference.max_ms());
  EXPECT_NEAR(snap.sum_ms(), reference.sum_ms(),
              1e-9 * reference.sum_ms());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(snap.Quantile(q), reference.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramCellTest, ConcurrentWritersLoseNoSamples) {
  HistogramCell cell;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cell, t] {
      for (int i = 0; i < kPerThread; ++i) {
        cell.Record(0.5 + static_cast<double>((t * 31 + i) % 100));
      }
    });
  }
  for (auto& w : writers) w.join();
  const Histogram snap = cell.Snapshot();
  EXPECT_EQ(snap.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.min_ms(), 0.5);
  EXPECT_EQ(snap.max_ms(), 99.5);
}

TEST(SnapshotBoardTest, ReadSeesLatestCompleteSnapshot) {
  SnapshotBoard<std::vector<int>> board;
  EXPECT_EQ(board.Read(), nullptr);
  board.Publish(std::make_shared<const std::vector<int>>(
      std::vector<int>{1, 2, 3}));
  auto first = board.Read();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->size(), 3u);
  board.Publish(std::make_shared<const std::vector<int>>(
      std::vector<int>{4}));
  // The old snapshot stays valid for readers still holding it.
  EXPECT_EQ(first->at(0), 1);
  EXPECT_EQ(board.Read()->size(), 1u);
}

TEST(SnapshotBoardTest, VersionCountsPublishes) {
  SnapshotBoard<int> board;
  const auto now = std::chrono::steady_clock::now();
  const auto never = [] { return false; };
  EXPECT_EQ(board.WaitNewer(0, now, never).version, 0u);
  EXPECT_EQ(board.WaitNewer(0, now, never).snapshot, nullptr);
  board.Publish(std::make_shared<const int>(7));
  board.Publish(std::make_shared<const int>(8));
  const auto latest = board.WaitNewer(2, now, never);
  EXPECT_EQ(latest.version, 2u);
  ASSERT_NE(latest.snapshot, nullptr);
  EXPECT_EQ(*latest.snapshot, 8);
}

TEST(SnapshotBoardTest, WaitNewerWakesOnPublishTimeoutOrStop) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  SnapshotBoard<int> board;
  const auto never = [] { return false; };
  // Nothing newer than version 0: the wait runs out.
  const auto start = steady_clock::now();
  auto got = board.WaitNewer(0, start + milliseconds(20), never);
  EXPECT_GE(steady_clock::now() - start, milliseconds(20));
  EXPECT_EQ(got.version, 0u);
  // A publish ends a long wait at once, with the new snapshot.
  std::thread publisher([&] {
    std::this_thread::sleep_for(milliseconds(10));
    board.Publish(std::make_shared<const int>(1));
  });
  got = board.WaitNewer(0, steady_clock::now() + std::chrono::seconds(10),
                        never);
  publisher.join();
  EXPECT_EQ(got.version, 1u);
  ASSERT_NE(got.snapshot, nullptr);
  EXPECT_EQ(*got.snapshot, 1);
  // An older `seen` returns at once.
  EXPECT_EQ(board.WaitNewer(0, steady_clock::time_point::max(), never).version,
            1u);
  // A stop made true through Notify ends a wait with no deadline.
  std::atomic<bool> stop{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(milliseconds(10));
    board.Notify([&] { stop.store(true); });
  });
  got = board.WaitNewer(1, steady_clock::time_point::max(),
                        [&] { return stop.load(); });
  stopper.join();
  EXPECT_EQ(got.version, 1u);
}

}  // namespace
}  // namespace frt::obs
