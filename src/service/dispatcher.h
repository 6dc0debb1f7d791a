// ServiceDispatcher: the multi-feed anonymization service.
//
// One dispatcher multiplexes many independent trajectory feeds through one
// shared WorkStealingPool:
//
//   ingest threads --Offer-->  [inbox: arrival lane]    (backpressure)
//                                   |
//                         dispatcher thread
//                 route -> FeedSession -> close windows
//                 (count, --close-after-ms deadline, final)
//                                   |
//                     admission (per-feed budgets)
//                                   |
//                  pool.Submit(window anonymization job)
//                                   |
//          workers --Deliver--> [inbox: finished lane] --> dispatcher
//        charge budgets -> submit next windows -> checkpoint -> sink
//                        (per-feed window order)
//
// Threading model. Offer() is called from any number of ingest threads and
// blocks on the inbox's bounded arrival lane — that is the service's
// ingress backpressure. ONE dispatcher thread owns every feed (session,
// assembler, ledger, report), so budget accounting needs no locks;
// the only work it delegates is the pure (window, rng) -> published-dataset
// batch job, which runs on the shared pool with per-window state it owns
// outright. A job fans its shards and its audit out over that same pool
// (WorkStealingPool::Run nests inside a submitted task), so one feed's
// window uses every worker and many feeds' windows share them. Workers
// hand results back through the inbox's finished lane, which has no
// capacity to block on (see service/inbox.h).
//
// The dispatcher thread runs one round, then one wait, until input has
// ended and no job is in flight. The round absorbs every finished job,
// serves due deadlines (until input ends), submits ready windows,
// publishes, takes the interval checkpoint (until input ends) and ticks
// the snapshot board. The wait is the thread's one blocking call,
// DispatcherInbox::Wait: a finished job always wakes it, and an arrival
// wakes it (and is routed) unless ingress is paused (the backlog is at
// max_backlog_windows) or input has ended. It never sleeps past the next
// snapshot tick, so the board stays fresh while the last windows drain.
// Feeds that hold a closed window and have no job in flight wait in a
// FIFO: a submission pops its front in O(1), and a feed rejoins at the
// back only when its job completes, so none laps another.
//
// Ordering and determinism. Windows of ONE feed execute strictly one at a
// time, in close order: admission always sees the predecessor's recorded
// spend, sinks observe each feed in window order, and the per-feed RNG
// stream (seeded from master seed + feed id + generation, forked per
// window at close) never depends on other feeds. Cross-feed concurrency —
// up to max_in_flight window jobs from distinct feeds — is where the pool
// earns its keep. Consequence: a feed's published windows are
// bit-identical between a solo run and any multiplexed run at the same
// seed, which is also what makes per-feed budget isolation testable.
//
// Publishing is off the window's critical path. Each round absorbs
// finished jobs (charging their spend), submits the admissible next
// windows, and only then publishes the absorbed outputs: one write-ahead
// checkpoint, then the sinks. So window N's checkpoint and sink overlap
// window N+1's anonymization on the pool, while admission
// of N+1 still sees N's charged spend and N still reaches the sink
// before N+1. A completed window waiting for its sink keeps its session
// from draining, so an idle eviction can never discard it. Across feeds,
// windows reach the sinks in completion order, which depends on timing:
// per-feed output is reproducible, the interleaving of feeds is not.
//
// Window closure. Count (the buffer reached window_size), wall-clock
// deadline (--close-after-ms: a non-empty window is published no later
// than that many ms after its oldest uncovered arrival; the latency SLO
// for trickle feeds), and final (input finished). Idle sessions
// (--evict-idle-ms) are flushed and torn down; their budget carries into
// any successor session conservatively (see feed_session.h).
//
// One owner per value. A feed's counters live in its slot's StreamReport,
// which outlives session generations (each session writes through to it);
// service-wide totals and stage latencies live in the registry. Each
// metrics tick copies both into a ServiceSnapshot, and after Finish() the
// final tick's snapshot is the run's report — the same object /feedz and
// the metrics exporter render at shutdown.
//
// One feed is a stream. frt_stream runs a one-feed dispatcher (feed key
// "stream") with max_backlog_windows = 1, which bounds its buffering to
// the window being published, the window in flight, the next closed
// window, and the arrival lane.

#ifndef FRT_SERVICE_DISPATCHER_H_
#define FRT_SERVICE_DISPATCHER_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "common/result.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "runtime/work_stealing_pool.h"
#include "service/checkpoint.h"
#include "service/feed_session.h"
#include "service/inbox.h"
#include "service/service_snapshot.h"
#include "stream/ingest.h"
#include "stream/stream_types.h"
#include "traj/dataset.h"

namespace frt {

/// Longest snapshot cadence (a day): a longer one would overflow deadlines.
inline constexpr int64_t kMaxMetricsIntervalMs = 24 * 60 * 60 * 1000;

/// Configuration of the multi-feed service.
struct ServiceConfig {
  /// Per-feed streaming behavior: window geometry, budgets/accounting,
  /// close_after_ms, batch pipeline. Every session applies this config to
  /// its own feed; `stream.batch.pool` and threads are managed by the
  /// service (window jobs fan their shards out over the shared pool).
  StreamConfig stream;
  /// Shared pool workers. 0 picks max(2, hardware concurrency): even on
  /// one core the service needs a worker besides the dispatcher so feeds
  /// overlap.
  unsigned pool_threads = 0;
  /// Concurrent window jobs across all feeds; backpressure on submission.
  /// 0 means 2x pool workers.
  size_t max_in_flight = 0;
  /// Arrival lane capacity, in trajectories; the ingress backpressure
  /// bound. 0 means 4x window_size.
  size_t arrival_queue_capacity = 0;
  /// Closed-but-not-yet-executed windows held across all sessions before
  /// the dispatcher pauses ingress (arrivals then pile into the bounded
  /// arrival lane and Offer blocks — end-to-end backpressure when feeds
  /// outrun the pool). 0 means 4x max_in_flight.
  size_t max_backlog_windows = 0;
  /// Sessions with no arrival for this long are flushed and evicted
  /// (budget state carries into any successor). 0 disables eviction.
  int64_t idle_evict_ms = 0;
  /// Durable budget ledgers: when non-empty, per-feed ledger snapshots are
  /// checkpointed into this directory and recovered from it on Start()
  /// through the conservative carry path idle eviction uses. The
  /// write-ahead rule: a snapshot covering a window's spend is made
  /// durable BEFORE that window reaches the sink, so a crash can only
  /// under-grant remaining budget, never over-grant (see
  /// service/checkpoint.h). Empty disables checkpointing.
  std::string state_dir;
  /// Cadence (ms) for interval snapshots covering ledger changes with no
  /// publish to ride on (session revivals, evictions). Publish-driven
  /// write-ahead snapshots ignore this — they are mandatory.
  int64_t checkpoint_interval_ms = 1000;
  /// Cadence of the service snapshot (see Introspect()).
  int64_t metrics_interval_ms = 1000;
  /// Registry holding the service's counters, gauges and stage-latency
  /// cells (not owned; must outlive the service). It is the only store of
  /// those values: every snapshot (the final report included) and /metrics
  /// read it.
  /// nullptr (the default) gives the dispatcher a private registry; the
  /// CLIs pass &obs::Registry::Default() so /metrics serves it. Sharing
  /// one registry between dispatchers aggregates them.
  obs::Registry* registry = nullptr;
};

/// Receives each published window on the dispatcher thread, per feed in
/// window order (feeds interleave). A non-OK return aborts the service.
using ServiceSink = std::function<Status(
    const std::string& feed, const Dataset& published, const WindowReport&)>;

/// \brief Session-oriented serving front-end (see file comment).
class ServiceDispatcher {
 public:
  ServiceDispatcher(ServiceConfig config, ServiceSink sink);
  /// Finishes (abandoning queued input) if the caller never called
  /// Finish().
  ~ServiceDispatcher();

  ServiceDispatcher(const ServiceDispatcher&) = delete;
  ServiceDispatcher& operator=(const ServiceDispatcher&) = delete;

  /// \brief Publishes the first snapshot, then spawns the shared pool and
  /// the dispatcher thread. `seed` is the master seed every per-feed RNG
  /// stream derives from. InvalidArgument when the stream config sets
  /// both budgets, or evict_exhausted without a per-object budget.
  Status Start(uint64_t seed);

  /// \brief Hands one arrival to the service, blocking when the arrival
  /// lane is full (ingress backpressure). Thread-safe. Returns false once
  /// the service is finishing or aborted — the producer should stop.
  bool Offer(std::string feed, Trajectory t);

  /// \brief Reports `feed` as untrustworthy (malformed frame, decode or
  /// parse failure): the feed's output stops at the fault. Windows it
  /// closed before the marker still run and publish; its uncovered
  /// arrivals — a partial window read ahead of the fault — are dropped,
  /// never published or charged; its further arrivals are refused. Every
  /// other feed is untouched. Thread-safe and idempotent; ordered with
  /// Offer() calls from the same producer thread (both ride the arrival
  /// lane). Returns false once the service is finishing or aborted.
  bool OfferQuarantine(std::string feed, std::string reason);

  /// \brief Closes ingress, drains every session (final partial windows
  /// included), waits for all in-flight jobs, and joins the dispatcher.
  /// Returns the first error the run hit (ingest routing, pipeline, sink,
  /// or accounting); budget refusals are NOT errors — see report().
  Status Finish();

  /// \brief The run's report: the final snapshot (finished == true), the
  /// object Introspect() returns after Finish(). Empty before Finish().
  const ServiceSnapshot& report() const { return *report_; }

  /// \brief The live session of `feed` — its ledger — or
  /// nullptr when the feed was never seen, idle-evicted or quarantined.
  /// Valid only after Finish(): the dispatcher thread owns every session
  /// while the service runs.
  const FeedSession* session(const std::string& feed) const;

  const ServiceConfig& config() const { return config_; }

  /// \brief Latest service snapshot (nullptr until Start() returns OK),
  /// rebuilt on the dispatcher thread every metrics_interval_ms and at
  /// shutdown. Safe from any thread at any time; never blocks the
  /// dispatcher (see obs::SnapshotBoard). After Finish() it is the final
  /// snapshot.
  std::shared_ptr<const ServiceSnapshot> Introspect() const {
    return snapshots_.Read();
  }

  /// The board Introspect() reads (the metrics exporter waits on it).
  const obs::SnapshotBoard<ServiceSnapshot>& snapshots() const {
    return snapshots_;
  }

  /// \brief Retunes the one metrics clock (admin /control; thread-safe):
  /// the dispatcher wakes and publishes under the new interval at once.
  void SetMetricsIntervalMs(int64_t ms) {
    metrics_interval_ms_.store(
        std::clamp<int64_t>(ms, 1, kMaxMetricsIntervalMs),
        std::memory_order_relaxed);
    if (started_) inbox_->Wake();
  }

 private:
  struct Completion {
    WindowJob job;
    Result<Dataset> published = Status::Internal("job not executed");
    BatchReport batch;
    /// When the worker picked the job up (queue wait ends) and how long
    /// the anonymization ran, stamped by the worker for the dispatcher's
    /// stage histograms.
    std::chrono::steady_clock::time_point started_at{};
    double run_ms = 0.0;
  };
  struct Arrival {
    std::string feed;
    Trajectory trajectory;
    /// OfferQuarantine marker: no trajectory, `reason` set instead.
    bool quarantine = false;
    std::string reason;
  };
  /// A feed's state across session generations (dispatcher thread only).
  struct FeedSlot {
    std::unique_ptr<FeedSession> session;  ///< null while evicted
    FeedBudgetCarry carry;
    uint64_t generations = 0;
    /// The feed's one report: every session generation writes through to
    /// it (see FeedSession).
    StreamReport report;
    bool ever_evicted = false;
    /// The feed was declared untrustworthy: arrivals refused, session
    /// retired (at once, or once its closed backlog drained). Never
    /// revived.
    bool quarantined = false;
    std::string quarantine_reason;
    /// Earliest deadline currently pushed on the heap for this feed
    /// (time_point::max() when none): a new deadline only pushes when it
    /// beats this, so the heap never grows faster than one entry per
    /// arrival batch. Reset on eviction/quarantine so a revived session
    /// re-arms from scratch.
    std::chrono::steady_clock::time_point armed_deadline =
        std::chrono::steady_clock::time_point::max();
    /// Per-feed latency histograms, surviving across generations.
    obs::Histogram close_wait_hist;
    obs::Histogram publish_hist;
  };
  /// Min-heap entry: the earliest moment `feed` may need attention
  /// (deadline window closure or idle eviction). Entries are lazy — a
  /// deadline that moved later or disappeared leaves a stale entry that
  /// is discarded at pop — so arming is push-only and the dispatcher's
  /// per-iteration deadline lookup is O(1) instead of a scan of every
  /// feed ever seen.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point when;
    std::string feed;
  };
  struct DeadlineLater {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      return a.when > b.when;
    }
  };
  /// A completed window whose spend is charged but whose output has not
  /// yet been handed to the sink — it waits for the write-ahead checkpoint
  /// covering that spend.
  struct PendingPublish {
    std::string feed;
    Dataset published;
    WindowReport report;
  };

  /// The dispatcher thread: rounds and waits (see file comment), then the
  /// final checkpoint and the final tick.
  void DispatcherLoop();
  /// Routes one arrival into its session (reviving evicted feeds;
  /// dropping arrivals of quarantined feeds). A window-closure failure is
  /// a per-feed fault — the feed is quarantined, the service survives.
  void Route(Arrival&& arrival, std::chrono::steady_clock::time_point now);
  /// Earliest future moment `slot` needs attention: its close_after_ms
  /// window deadline or its idle-eviction time, whichever comes first.
  std::optional<std::chrono::steady_clock::time_point> EffectiveDeadline(
      const FeedSlot& slot) const;
  /// Pushes `slot`'s effective deadline onto the heap if it beats the
  /// entry already armed for it.
  void ArmDeadline(const std::string& feed, FeedSlot& slot);
  /// Pops every due heap entry and services it: deadline window closure,
  /// then idle eviction, then re-arm. O(log feeds) per wakeup; stale
  /// entries are discarded.
  void ProcessDueDeadlines(std::chrono::steady_clock::time_point now);
  /// Closes one window on `slot`'s session, keeping the running backlog
  /// counter and ready_. A closure failure (duplicate object id, ...)
  /// quarantines the feed; returns false in that case.
  bool CloseSessionWindow(const std::string& feed, FeedSlot& slot,
                          WindowClose reason,
                          std::chrono::steady_clock::time_point now);
  /// Declares `feed` untrustworthy and marks the slot so arrivals and
  /// revivals are refused. With `drain` (external reports, see
  /// OfferQuarantine) the closed backlog still runs and the session is
  /// retired once drained; without it (a fault inside the feed's own
  /// pipeline) the session and its backlog are torn down at once.
  /// Idempotent. Never touches sibling feeds.
  void QuarantineFeed(const std::string& feed, std::string reason,
                      bool drain);
  /// Pops ready_ while in-flight capacity lasts, submitting each feed's
  /// next admissible window; a feed whose backlog drained through
  /// admission refusals instead is retired if it waited on that drain.
  void SubmitReady();
  /// Absorbs one finished job: charges budgets, samples latency, queues
  /// the output for FlushPublishes and returns a feed with backlog left
  /// to ready_. Does NOT sink.
  void AbsorbCompletion(std::unique_ptr<Completion> completion);
  /// Publishes every pending window: one durable checkpoint covering all
  /// their spend (state_dir set), then the sink calls, then the
  /// drained-session evictions. The round runs SubmitReady first, so the
  /// pool works on the next windows while the checkpoint and the sinks run
  /// here; absorbing already charged the spend admission reads.
  /// A session whose window waits in pending_ is not drained
  /// (FeedSession::Drained), so no retirement in between can discard it.
  void FlushPublishes();
  /// Snapshots every feed's carry state and durably replaces the
  /// on-disk checkpoint.
  Status WriteCheckpointNow();
  /// Interval snapshot for dirty ledgers with no publish to ride on.
  void MaybeCheckpoint(std::chrono::steady_clock::time_point now);
  /// Publishes a ServiceSnapshot when the interval elapsed or was retuned.
  void MaybePublishMetrics(std::chrono::steady_clock::time_point now);
  void PublishMetricsNow(std::chrono::steady_clock::time_point now);
  /// Records a fatal error once and stops admitting new work.
  void Abort(Status status);
  /// Saves the session's carry into its slot and tears the session down.
  void RetireSession(FeedSlot* slot);
  /// Idle-evicts a session (RetireSession plus the eviction counters).
  void EvictSession(FeedSlot* slot);
  /// Retires a drained session that waited on its drain: an idle eviction
  /// or a draining quarantine.
  void RetireIfDrained(FeedSlot* slot);

  ServiceConfig config_;
  ServiceSink sink_;
  uint64_t master_seed_ = 0;
  std::unique_ptr<WorkStealingPool> pool_;
  std::unique_ptr<DispatcherInbox<Arrival, std::unique_ptr<Completion>>>
      inbox_;
  std::thread dispatcher_;
  bool started_ = false;
  bool finished_ = false;

  // Dispatcher-thread state.
  std::unordered_map<std::string, FeedSlot> feeds_;
  std::vector<std::string> feed_order_;  ///< first-seen order (reports)
  /// Feeds whose session holds a closed window and has no job in flight,
  /// in the order they became so: a feed joins when it closes a window
  /// while idle or when its completion leaves backlog behind, and
  /// SubmitReady pops the front. An entry whose session a quarantine tore
  /// down is skipped at pop (a quarantined feed never rejoins).
  std::deque<std::string> ready_;
  /// Lazy min-heap over every live feed's next deadline (see
  /// DeadlineEntry) — replaces the per-iteration scan of all feeds.
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      DeadlineLater>
      deadlines_;
  /// Closed-but-not-yet-submitted windows across all sessions, maintained
  /// incrementally (close: +1, submit/refusal: -delta, quarantine:
  /// -backlog) — the backpressure test no longer scans every session.
  size_t backlog_windows_ = 0;
  size_t active_sessions_ = 0;
  size_t peak_active_sessions_ = 0;
  size_t feeds_recovered_ = 0;
  size_t in_flight_ = 0;
  bool aborted_ = false;
  /// stream.stop_when_exhausted tripped: ingress is closed and discarded,
  /// closed windows drain, and the run ends cleanly (not an error).
  bool stopping_ = false;
  Status error_ = Status::OK();
  // Durability + metrics (dispatcher thread only, except what Start()
  // runs before the thread spawns: store_, recovery, the first snapshot).
  std::optional<CheckpointStore> store_;
  std::vector<PendingPublish> pending_;
  uint64_t checkpoint_seq_ = 0;  ///< resumes from the recovered snapshot
  /// Ledger state changed since the last snapshot (spend, generation, or
  /// window-counter movement).
  bool ledger_dirty_ = false;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point last_checkpoint_{};
  std::chrono::steady_clock::time_point last_metrics_{};
  /// The interval the board's latest snapshot carries.
  int64_t last_metrics_interval_ms_ = 0;
  uint64_t metrics_seq_ = 0;
  /// The final tick's snapshot once the loop exited (see report()).
  std::shared_ptr<const ServiceSnapshot> report_ =
      std::make_shared<const ServiceSnapshot>();
  /// The loop's final tick is running: the snapshot it builds carries
  /// finished=true so /readyz can flip before Finish() returns.
  bool final_tick_ = false;
  /// Runtime-tunable metrics cadence (SetMetricsIntervalMs, any thread);
  /// seeded from config_.metrics_interval_ms at construction.
  std::atomic<int64_t> metrics_interval_ms_{1000};
  /// Publication point of the per-tick ServiceSnapshot.
  obs::SnapshotBoard<ServiceSnapshot> snapshots_;
  /// Backs config_.registry when the caller passed none.
  std::unique_ptr<obs::Registry> owned_registry_;
  /// The registry's metrics (see ServiceConfig::registry), written on the
  /// dispatcher thread only: counters where the events happen, gauges at
  /// each snapshot, one latency cell per ServiceStage.
  obs::Counter* ctr_sessions_created_ = nullptr;
  obs::Counter* ctr_sessions_evicted_ = nullptr;
  obs::Counter* ctr_windows_closed_ = nullptr;
  obs::Counter* ctr_windows_published_ = nullptr;
  obs::Counter* ctr_windows_refused_ = nullptr;
  obs::Counter* ctr_windows_deadline_closed_ = nullptr;
  obs::Counter* ctr_trajectories_in_ = nullptr;
  obs::Counter* ctr_trajectories_published_ = nullptr;
  obs::Counter* ctr_trajectories_refused_ = nullptr;
  obs::Counter* ctr_trajectories_evicted_ = nullptr;
  obs::Counter* ctr_feeds_quarantined_ = nullptr;
  obs::Counter* ctr_checkpoints_written_ = nullptr;
  obs::Counter* ctr_checkpoint_errors_ = nullptr;
  obs::Gauge* g_active_sessions_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_backlog_windows_ = nullptr;
  obs::Gauge* g_in_flight_ = nullptr;
  obs::Gauge* g_feeds_ = nullptr;
  obs::Gauge* g_eps_spent_max_ = nullptr;
  std::array<obs::HistogramCell*, kNumServiceStages> stage_cells_{};
};

/// \brief Offers every trajectory `reader` yields to `service` as `feed`,
/// until the input ends or the service stops accepting. A parse error
/// quarantines `feed` before it is returned, so the partial window read
/// ahead of the bad line is never published or charged (windows that
/// closed before it still publish).
Status OfferFeed(TrajectoryReader& reader, const std::string& feed,
                 ServiceDispatcher& service);

/// \brief OfferFeed for the multi-feed CSV: each trajectory goes to its
/// own feed, and an error quarantines every feed read so far.
Status OfferFeeds(MultiFeedReader& reader, ServiceDispatcher& service);

}  // namespace frt

#endif  // FRT_SERVICE_DISPATCHER_H_
