// Shared fixture builders for the FRT test suites. Extracted from
// stream_e2e_test, batch_runner_test, and runtime_e2e_test so the synthetic
// feeds, taxi fleets, and capture sinks the suites drive cannot drift
// apart as tests are added.

#ifndef FRT_TESTS_TESTING_UTIL_H_
#define FRT_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <istream>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <system_error>
#include <vector>

#include "core/pipeline.h"
#include "service/dispatcher.h"
#include "stream/ingest.h"
#include "synth/workload.h"
#include "traj/dataset.h"

namespace frt::testing {

/// Deterministic synthetic feed: trajectory i is a drifting walk in a ~2 km
/// box; lengths vary with i so shard workloads are skewed. Lengths are
/// realistic (>= 24 samples): trajectories short enough for the deletion
/// mechanism to empty entirely would vanish from the CSV serialization,
/// which is a property of the paper's pipeline, not of the streaming
/// machinery under test.
///
/// With `distinct_ids` == 0 every arrival gets a fresh id (a partition-like
/// feed). With `distinct_ids` > 0 ids recycle modulo it, so every object
/// reappears arrivals/distinct_ids times — the pattern that separates
/// wholesale from per-object budget accounting. Ids stay unique within any
/// window of up to distinct_ids arrivals.
inline std::string SyntheticCsv(int arrivals, int distinct_ids = 0) {
  std::ostringstream out;
  out << "# traj_id,x,y,t\n";
  for (int i = 0; i < arrivals; ++i) {
    const int id = distinct_ids > 0 ? i % distinct_ids : i;
    const int points = 24 + (i * 7) % 17;
    double x = 200.0 + (i * 137) % 1700;
    double y = 300.0 + (i * 251) % 1500;
    int64_t t = 1000 + i;
    for (int j = 0; j < points; ++j) {
      out << id << ',' << x << ',' << y << ',' << t << '\n';
      x += 35.0 + (j * 11) % 20;
      y += 25.0 + ((i + j) * 13) % 30;
      t += 60;
    }
  }
  return out.str();
}

/// Deterministic synthetic taxi fleet on a grid city.
inline Dataset TaxiFleet(int taxis, int target_points, int grid_cols_rows,
                         uint64_t seed) {
  WorkloadConfig workload_config;
  workload_config.num_taxis = taxis;
  workload_config.target_points = target_points;
  RoadGenConfig road_config;
  road_config.cols = grid_cols_rows;
  road_config.rows = grid_cols_rows;
  auto workload = GenerateTaxiWorkload(workload_config, road_config, seed);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload->dataset;
}

/// Pipeline config with the given signature size and stage budgets.
inline FrequencyRandomizerConfig SmallPipeline(int m = 5,
                                               double epsilon_global = 0.5,
                                               double epsilon_local = 0.5) {
  FrequencyRandomizerConfig config;
  config.m = m;
  config.epsilon_global = epsilon_global;
  config.epsilon_local = epsilon_local;
  return config;
}

/// Structural equality of two datasets (ids, sizes, and points).
inline bool DatasetsEqual(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id() != b[i].id()) return false;
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!(a[i][j] == b[i][j])) return false;
    }
  }
  return true;
}

/// Per-feed capture of everything a multi-feed service publishes. The
/// ServiceSink runs on the dispatcher thread only; published_windows is
/// additionally readable from other threads (under mu) so tests can wait
/// for asynchronous publications (deadline closure, idle eviction) without
/// finishing the service.
struct ServiceCapture {
  struct Feed {
    std::vector<TrajId> ids;
    std::vector<std::vector<TimedPoint>> points;
    std::vector<std::vector<TrajId>> window_ids;
    std::vector<WindowReport> reports;
  };
  std::map<std::string, Feed> feeds;
  std::mutex mu;
  std::condition_variable cv;
  size_t published_windows = 0;

  ServiceSink MakeSink() {
    return [this](const std::string& feed, const Dataset& published,
                  const WindowReport& report) -> Status {
      std::lock_guard<std::mutex> lock(mu);
      Feed& f = feeds[feed];
      f.reports.push_back(report);
      std::vector<TrajId> this_window;
      for (const auto& t : published.trajectories()) {
        f.ids.push_back(t.id());
        this_window.push_back(t.id());
        f.points.push_back(t.points());
      }
      f.window_ids.push_back(std::move(this_window));
      ++published_windows;
      cv.notify_all();
      return Status::OK();
    };
  }

  /// Blocks until at least `n` windows were published (or the timeout
  /// hits; returns false then).
  bool WaitForWindows(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout,
                       [&] { return published_windows >= n; });
  }

  /// Structural equality of one feed's published stream against another
  /// capture's (ids, window boundaries, and every point bit-for-bit).
  static bool FeedsEqual(const Feed& a, const Feed& b) {
    return a.ids == b.ids && a.window_ids == b.window_ids &&
           a.points == b.points;
  }
};

/// The service configuration frt_stream runs: one feed, one closed window
/// buffered behind the one in flight, an arrival queue of two windows.
inline ServiceConfig OneFeedConfig(const StreamConfig& stream,
                                   unsigned pool_threads = 4) {
  ServiceConfig config;
  config.stream = stream;
  config.pool_threads = pool_threads;
  config.arrival_queue_capacity = 2 * std::max<size_t>(stream.window_size, 1);
  config.max_backlog_windows = 1;
  return config;
}

/// Outcome of one CSV feed streamed through a one-feed ServiceDispatcher
/// (feed "stream"), the way frt_stream runs it.
struct OneFeedRun {
  /// The reader's error (OfferFeed) or Finish()'s, whichever came first.
  Status status = Status::OK();
  StreamReport report;
  bool quarantined = false;
  std::string quarantine_reason;
  /// The feed's ledger after the run (FeedSession::ledger());
  /// default-constructed when its session was retired (quarantine).
  ObjectBudgetAccountant ledger;
  ServiceCapture::Feed published;
};

inline OneFeedRun RunOneFeed(const ServiceConfig& config, std::istream& in,
                             uint64_t seed) {
  OneFeedRun run;
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  run.status = service.Start(seed);
  if (!run.status.ok()) return run;
  TrajectoryReader reader(in);
  const Status ingest = OfferFeed(reader, "stream", service);
  run.status = service.Finish();
  if (run.status.ok()) run.status = ingest;
  for (const ServiceSnapshot::Feed& feed : service.report().feeds_detail) {
    run.report = feed.stream;
    run.quarantined = feed.quarantined;
    run.quarantine_reason = feed.quarantine_reason;
  }
  if (const FeedSession* session = service.session("stream")) {
    run.ledger = session->ledger();
  }
  run.published = std::move(capture.feeds["stream"]);
  return run;
}

inline OneFeedRun RunOneFeed(const ServiceConfig& config,
                             const std::string& csv, uint64_t seed) {
  std::istringstream in(csv);
  return RunOneFeed(config, in, seed);
}

/// A live feed for deadline tests: an istream whose reader blocks until
/// the writer appends more bytes or ends the feed — what stdin on a quiet
/// pipe does, without needing a real pipe.
class BlockingFeed {
 public:
  BlockingFeed() : stream_(&buf_) {}

  std::istream& stream() { return stream_; }

  /// Appends bytes; a blocked reader wakes and consumes them.
  void Append(const std::string& bytes) { buf_.Append(bytes); }

  /// Ends the feed: the reader sees EOF once the bytes are drained.
  void End() { buf_.End(); }

 private:
  class Buf : public std::streambuf {
   public:
    void Append(const std::string& bytes) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        data_.append(bytes);
      }
      cv_.notify_all();
    }
    void End() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
      }
      cv_.notify_all();
    }

   protected:
    int_type underflow() override {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pos_ < data_.size() || closed_; });
      if (pos_ >= data_.size()) return traits_type::eof();
      chunk_.assign(data_, pos_, data_.size() - pos_);
      pos_ = data_.size();
      setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
      return traits_type::to_int_type(chunk_[0]);
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::string data_;
    size_t pos_ = 0;
    bool closed_ = false;
    std::string chunk_;
  };

  Buf buf_;
  std::istream stream_;
};

/// A fresh unique directory under the test temp root, removed with all
/// it holds when the test that made it ends: concurrent test processes
/// that share one temp root never touch each other's files.
class TempDirectory {
 public:
  TempDirectory() : path_(::testing::TempDir() + "frt_test_XXXXXX") {
    EXPECT_NE(mkdtemp(path_.data()), nullptr);
  }
  ~TempDirectory() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDirectory(const TempDirectory&) = delete;
  TempDirectory& operator=(const TempDirectory&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace frt::testing

#endif  // FRT_TESTS_TESTING_UTIL_H_
