// ServiceSnapshot: the one point-in-time view of a running service.
//
// The dispatcher builds one immutable snapshot per metrics tick (and at
// start and shutdown) and publishes it through an obs::SnapshotBoard.
// Every point-in-time rendering reads that board: the metrics exporter's
// `frt_metrics`/`frt_feed`/`frt_stage` lines, the admin plane's /feedz
// (RenderFeedz below) and /healthz /readyz. The snapshot of the final tick
// is also the end-of-run report (ServiceDispatcher::report()) the CLIs
// print. Every value has one owner: service-wide totals are the
// dispatcher's registry counters and stage-latency cells (what /metrics
// scrapes), and per-feed values are the feed slot's StreamReport.

#ifndef FRT_SERVICE_SERVICE_SNAPSHOT_H_
#define FRT_SERVICE_SERVICE_SNAPSHOT_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/stream_types.h"

namespace frt {

/// The dispatcher's stage-latency series (`frt_stage_ms{stage=...}`), in
/// `frt_stage` line order.
enum ServiceStage : size_t {
  kStageCloseWait,  ///< oldest uncovered arrival -> window close
  kStageQueueWait,  ///< window close -> a worker picks the job up
  kStageAnonymize,  ///< the window's batch pipeline run
  kStagePublish,    ///< window close -> output ready for the sink
  kStageSink,       ///< the sink call
  kStageCheckpoint, ///< one durable ledger snapshot write
  kNumServiceStages,
};

/// Label value of each ServiceStage.
inline constexpr std::array<const char*, kNumServiceStages>
    kServiceStageNames = {"close_wait", "queue_wait", "anonymize",
                          "publish",    "sink",       "checkpoint"};

/// Cumulative summary of one stage-latency cell (exact count, ~1.6%
/// quantile error; see obs::Histogram).
struct StageSummary {
  uint64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

struct ServiceSnapshot {
  /// Monotone tick counter; a consumer that sees the same seq twice with
  /// a growing published_at age is looking at a wedged dispatcher.
  uint64_t seq = 0;
  int64_t uptime_ms = 0;
  /// When this view was built (steady clock) — readers derive staleness.
  std::chrono::steady_clock::time_point published_at{};
  /// The dispatcher loop has exited (final view).
  bool finished = false;
  /// The run hit a fatal error (error surfaces through Finish()).
  bool aborted = false;

  // Gauges (also set as the frt_serve_* registry gauges).
  size_t feeds = 0;
  size_t active_sessions = 0;
  size_t queue_depth = 0;      ///< arrival queue occupancy
  size_t backlog_windows = 0;  ///< closed-but-unsubmitted windows
  size_t in_flight = 0;        ///< window jobs on the pool
  /// Largest per-feed guarantee so far (max over feeds of epsilon_spent).
  double epsilon_spent_max = 0.0;

  // Counters, read from the dispatcher's registry.
  size_t windows_closed = 0;
  size_t windows_published = 0;
  size_t windows_refused = 0;
  size_t windows_deadline_closed = 0;
  size_t trajectories_in = 0;
  size_t trajectories_published = 0;
  size_t trajectories_refused = 0;
  size_t trajectories_evicted = 0;
  size_t sessions_created = 0;
  size_t sessions_evicted = 0;
  size_t feeds_quarantined = 0;

  // Dispatcher state.
  /// Most sessions live at once so far.
  size_t peak_active_sessions = 0;
  /// Feeds revived from the durable snapshot at Start().
  size_t feeds_recovered = 0;

  /// Durability lag: sequence/age of the last durable snapshot, how many
  /// were written and how many writes failed (each aborts the run).
  uint64_t checkpoint_seq = 0;
  double checkpoint_age_ms = -1.0;  ///< negative: checkpointing off/idle
  size_t checkpoints_written = 0;
  size_t checkpoint_errors = 0;

  struct Feed {
    std::string feed;
    /// The feed slot's report: counters over every session generation;
    /// epsilon_spent is the cumulative guarantee (wholesale total or max
    /// per-object spend).
    StreamReport stream;
    /// max(0, budget - spent); +inf when the ledger is not enforcing.
    double epsilon_remaining = 0.0;
    /// Closed-but-unsubmitted windows this feed holds right now.
    size_t backlog = 0;
    /// Session generations this feed went through (1 = never evicted).
    uint64_t sessions = 0;
    /// The feed's session was idle-evicted and not re-opened.
    bool evicted = false;
    /// The feed was quarantined (malformed input, decode failure, or a
    /// per-feed pipeline error): further arrivals were refused and its
    /// session torn down, without failing the sibling feeds.
    bool quarantined = false;
    /// First fault that quarantined the feed (empty unless quarantined).
    std::string quarantine_reason;
    /// The feed's close-wait and publish latencies over every generation.
    /// Filled on the final tick only (all zero before).
    StageSummary close_wait;
    StageSummary publish;
  };
  /// Every feed ever seen, in first-seen order.
  std::vector<Feed> feeds_detail;

  /// Stage-latency summaries, indexed by ServiceStage.
  std::array<StageSummary, kNumServiceStages> stages{};
};

/// True when any feed dropped anything on budget; the service CLIs map
/// this to exit code 3.
inline bool ServiceHadRefusals(const ServiceSnapshot& snapshot) {
  return snapshot.windows_refused > 0 || snapshot.trajectories_evicted > 0;
}

/// \brief /feedz JSON body. The epsilon fields are strings with the exact
/// `frt_feed` line formats (eps_spent %.6f, eps_remaining %g), so a scrape
/// of the final snapshot matches the final `frt_feed` lines byte for byte
/// — and "inf" never produces an invalid JSON number.
std::string RenderFeedz(const ServiceSnapshot& snapshot);

}  // namespace frt

#endif  // FRT_SERVICE_SERVICE_SNAPSHOT_H_
