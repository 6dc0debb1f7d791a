// Interval metrics exporter for the serving layer.
//
// Follows the LDMS sampler / storage-policy split: the data-plane thread
// (the ServiceDispatcher's dispatcher thread, or a CLI's sink callback)
// PUBLISHES point-in-time MetricsSnapshots — plain structs it can build
// from state it already owns, with no locks on the hot path beyond one
// swap — and a dedicated exporter thread STORES them: every interval it
// formats the latest snapshot as one machine-readable `frt_metrics`
// key=value line (plus optional `frt_feed` per-feed lines) and appends it
// to a file or stderr. A slow disk therefore never backpressures the
// dispatcher, and a wedged dispatcher is still visible (the exporter
// re-emits the last snapshot with a fresh timestamp, so consumers can
// alert on a stale `seq`).
//
// Line format (stable, parse-with-awk friendly; one record per line):
//
//   frt_metrics ts_ms=<unix ms> seq=<n> uptime_ms=... feeds=...
//     active_sessions=... queue_depth=... backlog_windows=... in_flight=...
//     windows_closed=... windows_published=... windows_refused=...
//     windows_deadline_closed=... trajs_in=... trajs_published=...
//     feeds_quarantined=... publish_per_s=<delta throughput>
//     close_wait_p50_ms=...
//     close_wait_p99_ms=... publish_p50_ms=... publish_p99_ms=...
//     eps_spent_max=... ckpt_seq=... ckpt_age_ms=... ckpt_written=...
//     ckpt_errors=...
//
//   frt_feed ts_ms=... feed=<id> eps_spent=... eps_remaining=...
//     windows_published=... windows_refused=...
//
// With Options::histograms, one per-stage line per interval and stage
// (close_wait, queue_wait, anonymize, publish, sink, checkpoint), read
// out of the dispatcher's bounded obs::Histogram instances — cumulative
// over the run, exact counts, ~1.6% quantile error:
//
//   frt_stage ts_ms=... stage=<name> count=<samples> p50_ms=...
//     p99_ms=... max_ms=... mean_ms=...
//
// `publish_per_s` is computed by the exporter from consecutive snapshots
// (delta trajectories / delta uptime), so the publisher only ever reports
// monotone counters — the LDMS rule that samplers sample and storage
// policies derive.

#ifndef FRT_SERVICE_METRICS_EXPORTER_H_
#define FRT_SERVICE_METRICS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"

namespace frt {

/// Point-in-time view of the service, built by the data-plane thread.
struct MetricsSnapshot {
  /// Publisher-side monotone sequence; lets consumers detect a stalled
  /// data plane under a live exporter.
  uint64_t seq = 0;
  /// Milliseconds since the service started.
  int64_t uptime_ms = 0;
  size_t feeds = 0;
  size_t active_sessions = 0;
  size_t queue_depth = 0;       ///< arrival queue occupancy
  size_t backlog_windows = 0;   ///< closed-but-unsubmitted windows
  size_t in_flight = 0;         ///< window jobs on the pool
  size_t windows_closed = 0;
  size_t windows_published = 0;
  size_t windows_refused = 0;
  size_t windows_deadline_closed = 0;
  size_t trajectories_in = 0;
  size_t trajectories_published = 0;
  /// Feeds quarantined so far (malformed input / per-feed faults).
  size_t feeds_quarantined = 0;
  double close_wait_p50_ms = 0.0;
  double close_wait_p99_ms = 0.0;
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  /// Largest per-feed guarantee so far (max over feeds of the feed's
  /// epsilon_spent — wholesale total or max per-object spend).
  double epsilon_spent_max = 0.0;
  /// Durability lag: sequence/age of the last durable snapshot, and how
  /// many were written. Zero/negative age when checkpointing is off.
  uint64_t checkpoint_seq = 0;
  double checkpoint_age_ms = -1.0;
  size_t checkpoints_written = 0;
  /// Failed snapshot writes (each aborts the run; non-zero explains an
  /// unexpected exit).
  size_t checkpoint_errors = 0;

  struct Feed {
    std::string feed;
    double epsilon_spent = 0.0;
    /// Remaining budget; +inf when the feed's ledger is not enforcing.
    double epsilon_remaining = 0.0;
    size_t windows_published = 0;
    size_t windows_refused = 0;
  };
  /// Per-feed detail (emitted as `frt_feed` lines when enabled).
  std::vector<Feed> feeds_detail;

  struct Stage {
    std::string stage;
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms = 0.0;
  };
  /// Per-stage latency detail (emitted as `frt_stage` lines when
  /// enabled), read from the publisher's histograms.
  std::vector<Stage> stages;
};

/// \brief Interval exporter thread (see file comment). Start() spawns it,
/// Stop() flushes a final line and joins; Publish() may be called from any
/// thread.
class MetricsExporter {
 public:
  struct Options {
    /// Output: a file path (appended, created if missing) or "-" for
    /// stderr.
    std::string path;
    /// Emission interval.
    int64_t interval_ms = 1000;
    /// Also emit one `frt_feed` line per feed each interval. Off by
    /// default: with tens of thousands of feeds the per-feed lines
    /// dominate the file.
    bool per_feed = false;
    /// Also emit one `frt_stage` histogram line per stage each interval.
    bool histograms = false;
  };

  explicit MetricsExporter(Options options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// \brief Opens the output and spawns the exporter thread.
  Status Start();

  /// \brief Replaces the latest snapshot (cheap: one lock + swap).
  void Publish(MetricsSnapshot snapshot);

  /// \brief Joins the exporter thread, then synchronously emits one final
  /// line for the latest snapshot — the file always ends with the
  /// end-of-run state, even when the last Publish landed mid-interval
  /// (publishers must be quiesced before Stop, which every caller's
  /// shutdown order guarantees). Idempotent.
  void Stop();

  /// Milliseconds between emitted lines.
  int64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// \brief Changes the emission interval at runtime (admin /control).
  /// Cuts the wait in progress short: the next line comes one new
  /// interval after the retune, not at the old deadline.
  void SetIntervalMs(int64_t ms);

  /// Whether per-feed `frt_feed` lines are emitted — publishers may skip
  /// building feeds_detail otherwise.
  bool per_feed() const { return options_.per_feed; }

  /// Whether per-stage `frt_stage` lines are emitted — publishers may
  /// skip building stages otherwise.
  bool histograms() const { return options_.histograms; }

  /// Lines written so far (tests).
  size_t lines_written() const;

  /// Interval waits the exporter thread has entered (tests: once this is
  /// positive, the thread is asleep on — or past — its first interval).
  size_t waits_begun() const;

 private:
  void Loop();
  /// Formats and appends one line set for `snapshot`. Returns false on a
  /// write error (reported once to stderr; the exporter then stops
  /// writing but never takes the service down — metrics are diagnostics,
  /// not data).
  bool Emit(const MetricsSnapshot& snapshot);

  Options options_;
  std::atomic<int64_t> interval_ms_{1000};
  std::FILE* out_ = nullptr;
  bool owns_out_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  MetricsSnapshot latest_;
  bool has_snapshot_ = false;
  bool stop_ = false;
  uint64_t interval_generation_ = 0;  ///< bumped by SetIntervalMs
  size_t waits_begun_ = 0;
  bool writable_ = true;  ///< cleared after the first write error
  size_t lines_written_ = 0;

  // Exporter-thread state for delta throughput.
  bool have_prev_ = false;
  size_t prev_published_ = 0;
  int64_t prev_uptime_ms_ = 0;

  std::thread thread_;
  bool started_ = false;
};

}  // namespace frt

#endif  // FRT_SERVICE_METRICS_EXPORTER_H_
