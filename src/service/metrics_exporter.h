// Interval metrics exporter for the serving layer.
//
// Follows the LDMS sampler / storage-policy split, pull style: the
// dispatcher thread SAMPLES — it publishes one immutable ServiceSnapshot
// per tick to its SnapshotBoard and knows nothing about exporters — and a
// dedicated exporter thread STORES: every interval it pulls the latest
// snapshot from a SnapshotSource (normally ServiceDispatcher::Introspect),
// formats it as machine-readable key=value lines, and appends them to a
// file or stderr. A slow disk therefore never backpressures the
// dispatcher, and a wedged dispatcher is still visible (the board keeps
// returning the last snapshot, re-emitted with a fresh timestamp, so
// consumers can alert on a stale `seq`).
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
//     windows_published=... windows_refused=...          (Options::per_feed)
//
//   frt_stage ts_ms=... stage=<name> count=<samples> p50_ms=...
//     p99_ms=... max_ms=... mean_ms=...
//
// One frt_stage line per stage (close_wait, queue_wait, anonymize,
// publish, sink, checkpoint) is always emitted: the snapshot carries the
// summaries of the dispatcher's stage cells — cumulative over the run,
// exact counts, ~1.6% quantile error.
//
// `publish_per_s` is computed by the exporter from consecutive snapshots
// (delta trajectories / delta uptime), so the sampler only ever reports
// monotone counters — the LDMS rule that samplers sample and storage
// policies derive.

#ifndef FRT_SERVICE_METRICS_EXPORTER_H_
#define FRT_SERVICE_METRICS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "service/service_snapshot.h"

namespace frt {

/// Where the exporter pulls snapshots from; nullptr = nothing published
/// yet. Must be callable from the exporter thread.
using SnapshotSource = std::function<std::shared_ptr<const ServiceSnapshot>()>;

/// \brief Interval exporter thread (see file comment). Start() spawns it,
/// Stop() joins it and flushes a final line.
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
  };

  MetricsExporter(Options options, SnapshotSource source);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// \brief Opens the output and spawns the exporter thread.
  Status Start();

  /// \brief Joins the exporter thread, then synchronously emits one final
  /// line set for the source's latest snapshot. Called after
  /// ServiceDispatcher::Finish(), that is the final board snapshot — the
  /// very object a shutdown /feedz scrape renders — so the file ends with
  /// the end-of-run state even when it landed mid-interval. Idempotent.
  void Stop();

  /// Milliseconds between emitted lines.
  int64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// \brief Changes the emission interval at runtime (admin /control).
  /// Cuts the wait in progress short: the next line comes one new
  /// interval after the retune, not at the old deadline.
  void SetIntervalMs(int64_t ms);

  /// Lines written so far (tests).
  size_t lines_written() const;

  /// Interval waits the exporter thread has entered (tests: once this is
  /// positive, the thread is asleep on — or past — its first interval).
  size_t waits_begun() const;

 private:
  void Loop();
  /// Pulls the latest snapshot and appends one line set for it (nothing
  /// before the first snapshot or after a write error). A write error is
  /// reported once to stderr; the exporter then stops writing but never
  /// takes the service down — metrics are diagnostics, not data. Never
  /// called with mu_ held.
  void EmitLatest();

  Options options_;
  SnapshotSource source_;
  std::atomic<int64_t> interval_ms_{1000};
  std::FILE* out_ = nullptr;
  bool owns_out_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t interval_generation_ = 0;  ///< bumped by SetIntervalMs
  size_t waits_begun_ = 0;
  size_t lines_written_ = 0;

  // Exporter-thread state (Stop() touches it only after the join).
  bool writable_ = true;  ///< cleared after the first write error
  bool have_prev_ = false;
  size_t prev_published_ = 0;
  int64_t prev_uptime_ms_ = 0;

  std::thread thread_;
  bool started_ = false;
};

}  // namespace frt

#endif  // FRT_SERVICE_METRICS_EXPORTER_H_
