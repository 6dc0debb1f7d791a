// Metrics exporter for the serving layer: one line set per snapshot.
//
// LDMS sampler / storage-policy split: the dispatcher thread SAMPLES — it
// publishes one immutable ServiceSnapshot per tick to its SnapshotBoard —
// and the exporter thread STORES: it waits on the board and appends one
// key=value line set per snapshot to a file or stderr, so a slow disk
// never backpressures the dispatcher. The dispatcher's tick is the only
// metrics clock, so `seq` strictly increases down the file. It repeats,
// with a fresh `ts_ms`, only while the board is stale by StaleAfter
// (service_snapshot.h), the rule /healthz answers 503 by: the dispatcher
// has wedged, and the exporter re-emits once per interval.
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
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/result.h"
#include "obs/registry.h"
#include "service/service_snapshot.h"

namespace frt {

/// \brief Exporter thread (see file comment). Start() spawns it, Stop()
/// joins it.
class MetricsExporter {
 public:
  struct Options {
    /// Output: a file path (appended, created if missing) or "-" for
    /// stderr.
    std::string path;
    /// Also emit one `frt_feed` line per feed per snapshot. Off by
    /// default: with tens of thousands of feeds the per-feed lines
    /// dominate the file.
    bool per_feed = false;
  };

  /// `board` (ServiceDispatcher::snapshots()) must outlive the exporter.
  MetricsExporter(Options options,
                  const obs::SnapshotBoard<ServiceSnapshot>& board);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// \brief Opens the output and spawns the exporter thread.
  Status Start();

  /// \brief Stops the exporter thread, which first writes the board's
  /// latest snapshot unless it already has. Called after
  /// ServiceDispatcher::Finish(), that is the final board snapshot — the
  /// very object a shutdown /feedz scrape renders — so the file ends with
  /// the end-of-run state, once. Idempotent.
  void Stop();

  /// Line sets written so far (tests).
  size_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  /// Appends one line set for `s` (nothing after a write error). A write
  /// error is reported once to stderr; the exporter then stops writing
  /// but never takes the service down — metrics are diagnostics, not
  /// data.
  void Emit(const ServiceSnapshot& s);

  Options options_;
  const obs::SnapshotBoard<ServiceSnapshot>& board_;
  std::FILE* out_ = nullptr;
  bool owns_out_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> lines_written_{0};

  // Exporter-thread state.
  uint64_t written_version_ = 0;  ///< the board version last handled
  bool writable_ = true;  ///< cleared after the first write error
  bool have_prev_ = false;
  size_t prev_published_ = 0;
  int64_t prev_uptime_ms_ = 0;

  std::thread thread_;
  bool started_ = false;
};

}  // namespace frt

#endif  // FRT_SERVICE_METRICS_EXPORTER_H_
