// FeedSession: per-feed state of the multi-feed anonymization service.
//
// The paper's guarantee is per moving object within one feed; feeds are
// independent datasets, so their budgets must never interact. A session
// therefore owns everything whose sharing would couple feeds:
//
//   - its ring-buffer WindowAssembler (stream/window_assembler.h),
//   - its one ObjectBudgetAccountant ledger (cross-window accounting, per
//     feed): keyed by object id under a per-object budget, and on the one
//     feed-wide key kFeedWideObject otherwise — a wholesale budget is the
//     per-object ledger over a feed whose trajectories are all one object,
//     so one admission predicate and one charge serve both modes,
//   - its RNG stream, derived deterministically from (master seed, feed
//     id, session generation) — NOT from arrival interleaving — so a
//     feed's published windows are bit-identical whether it is served solo
//     or multiplexed with any number of other feeds,
//   - its backlog of closed-but-not-yet-anonymized windows.
//
// The feed's StreamReport is not the session's: the dispatcher's feed slot
// owns it across every generation, and the session writes through to it.
//
// The session is a passive state machine driven exclusively by the
// ServiceDispatcher's single consumer thread; nothing here is
// thread-safe. Anonymization itself happens elsewhere (a WindowJob on the
// shared pool); the session hands jobs out (NextSubmittable, which is
// where admission control runs) and absorbs their results (Complete,
// which charges the ledger and finalizes the WindowReport).
//
// Sessions are evictable: when a feed goes idle its session can be torn
// down to reclaim the assembler and ledger memory, and a later arrival
// opens a fresh session (next generation). Budget state survives the
// hand-off conservatively: the successor's ledger starts every key at the
// evicted session's maximum spend (FeedBudgetCarry::LedgerFloor through
// ObjectBudgetAccountant::PreloadFloor) — the per-object maximum, or the
// exact feed-wide total under a wholesale budget — so eviction can only
// over-charge, never leak budget.

#ifndef FRT_SERVICE_FEED_SESSION_H_
#define FRT_SERVICE_FEED_SESSION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "common/deadline.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dp/object_accountant.h"
#include "stream/stream_types.h"
#include "stream/window_assembler.h"
#include "traj/dataset.h"

namespace frt {

/// \brief Deterministic per-feed RNG seed: a pure function of the master
/// seed, the feed id, and the session generation. Independent of arrival
/// interleaving, session creation order, and every other feed — the root
/// of the solo-vs-multiplexed bit-identity guarantee.
inline uint64_t FeedStreamSeed(uint64_t master_seed, const std::string& feed,
                               uint64_t generation) {
  uint64_t s = master_seed;
  uint64_t mixed = SplitMix64(s) ^ Fnv1a64(feed);
  mixed += generation * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(mixed);
}

/// One closed window on its way to the shared pool. Self-contained: the
/// worker needs nothing from the session (whose lifetime it must not
/// depend on) beyond this job and the shared batch config.
struct WindowJob {
  std::string feed;
  uint64_t generation = 0;
  /// Per-feed window index, cumulative across session generations.
  size_t index = 0;
  WindowClose reason = WindowClose::kCount;
  Dataset window;
  /// Forked from the session stream at close time, in close order.
  Rng rng;
  /// Exhausted objects evicted at admission (per-object mode).
  size_t evicted = 0;
  std::chrono::steady_clock::time_point oldest_arrival{};
  std::chrono::steady_clock::time_point closed_at{};
  /// Oldest uncovered arrival -> close, the SLO --close-after-ms bounds.
  double close_wait_ms = 0.0;
};

/// State carried from an evicted session into its successor.
struct FeedBudgetCarry {
  /// Exact sum of every window's spend — what a wholesale budget charges.
  double wholesale_spent = 0.0;
  /// The ledger's maximum spend at eviction: the per-object maximum, or
  /// the feed-wide total when the ledger has one key.
  double per_object_floor = 0.0;
  /// Windows the feed closed across all prior generations, so window
  /// indices keep counting up instead of restarting at 0 per session.
  size_t windows_closed = 0;

  /// The spend a successor's ledger starts every key at. A per-object
  /// ledger floors at the per-object maximum; a feed-wide one at the
  /// exact wholesale total, so a wholesale checkpoint whose
  /// per_object_floor reads 0.0 still recovers its whole spend.
  double LedgerFloor(bool per_object) const {
    return per_object ? per_object_floor : wholesale_spent;
  }
};

/// \brief Per-feed session state machine (see file comment). Driven only
/// by the dispatcher thread.
class FeedSession {
 public:
  /// `config` is the per-feed streaming config shared by every session of
  /// the service (window geometry, budgets, batch pipeline). `carry` is
  /// zeroed for generation 0 and holds the evicted predecessor's budget
  /// state otherwise. `report` is the feed's report, owned by the caller
  /// and outliving the session; the session adds its counts to it.
  FeedSession(std::string feed, const StreamConfig& config,
              uint64_t master_seed, uint64_t generation,
              const FeedBudgetCarry& carry, StreamReport* report);

  /// Buffers one arrival and stamps the idle/deadline clocks.
  void Offer(Trajectory t, std::chrono::steady_clock::time_point now);

  /// True when a full count-based window is buffered.
  bool WindowReady() const { return assembler_.WindowReady(); }

  /// Deadline at which the buffered partial window must close
  /// (close_after_ms armed via CloseTimerDelay); kNever when nothing is
  /// pending or time-based closure is off.
  std::chrono::steady_clock::time_point CloseDeadline() const {
    return config_.close_after_ms > 0 && assembler_.uncovered() > 0
               ? DueAfter(oldest_uncovered_at_,
                          CloseTimerDelay(config_.close_after_ms))
               : kNever;
  }

  /// Moment this session has been silent for `idle_evict_ms`; kNever
  /// when eviction is off (<= 0) or already pending.
  std::chrono::steady_clock::time_point IdleDeadline(
      int64_t idle_evict_ms) const {
    return idle_evict_ms > 0 && !evict_when_drained_
               ? DueAfter(last_arrival_, idle_evict_ms)
               : kNever;
  }

  /// \brief Closes the next window over the buffer and appends it to the
  /// backlog. Fails (InvalidArgument naming the per-feed window index)
  /// when two buffered trajectories share an object id.
  Status CloseWindow(WindowClose reason,
                     std::chrono::steady_clock::time_point now);

  /// \brief Pops the next backlog window that survives admission control,
  /// marking the session busy. Windows refused on budget are recorded and
  /// skipped. Returns nullopt when the backlog drains (or the session is
  /// already busy — per-feed windows execute strictly one at a time, so
  /// admission always sees the predecessor's spend).
  std::optional<WindowJob> NextSubmittable();

  /// \brief Absorbs a finished job: charges the ledger with the ids the
  /// batch actually consumed, finalizes the WindowReport, and frees
  /// the session for its next submission. The window then awaits its
  /// publish (RecordPublished) and keeps the session from draining.
  /// `publish_latency_ms` is close -> completion-handled.
  Result<WindowReport> Complete(const WindowJob& job,
                                const Dataset& published,
                                const BatchReport& batch,
                                double publish_latency_ms);

  /// Counts a completed window as published. The dispatcher calls this
  /// only after the sink accepted the window, so a sink failure leaves the
  /// budget spent but the window unpublished.
  void RecordPublished(const WindowReport& window_report);

  /// Discards the uncovered arrivals: the feed ends without a trailing
  /// window, while windows already closed stay in the backlog.
  void DropUncovered() { assembler_.Clear(); }

  /// Releases the busy latch without charging anything — the dispatcher's
  /// path for jobs whose results are discarded (failed pipeline, aborted
  /// service).
  void Abandon() { busy_ = false; }

  /// True when nothing is pending anywhere: no uncovered arrivals, no
  /// backlog, no job in flight, and no completed window waiting for its
  /// sink (Complete ran, RecordPublished not yet). The only state an
  /// eviction may tear down.
  bool Drained() const {
    return !busy_ && !awaiting_publish_ && backlog_.empty() &&
           assembler_.uncovered() == 0;
  }

  /// Budget state a successor session must inherit if this one is evicted.
  FeedBudgetCarry Carry() const;

  bool busy() const { return busy_; }
  size_t backlog_size() const { return backlog_.size(); }
  size_t uncovered() const { return assembler_.uncovered(); }
  bool evict_when_drained() const { return evict_when_drained_; }
  void set_evict_when_drained(bool v) { evict_when_drained_ = v; }

  /// The one ledger key of a feed without a per-object budget: every
  /// trajectory of the feed is this one object.
  static constexpr TrajId kFeedWideObject = 0;

  /// The feed's ledger: per object id under a per-object budget, on
  /// kFeedWideObject otherwise.
  const ObjectBudgetAccountant& ledger() const { return ledger_; }

 private:
  /// \brief Budget admission control for one closed window: the window's
  /// ledger keys are filtered against the budget. A window with an
  /// exhausted key is refused, unless evict_exhausted drops the exhausted
  /// objects from it in place (counted in job->evicted) and some remain.
  /// Under a wholesale budget the one key is the whole window, so the
  /// window is refused. Refusals and evictions are counted in the feed's
  /// report and logged. True when the (possibly shrunk) window may run.
  bool Admit(WindowJob* job);

  std::string feed_;
  const StreamConfig& config_;
  uint64_t generation_ = 0;
  /// Per-feed index of the next window this session closes; starts at the
  /// windows prior generations closed, so indices never repeat.
  size_t next_index_ = 0;
  WindowAssembler assembler_;
  Rng rng_;
  ObjectBudgetAccountant ledger_;
  /// Sum of every window's spend: the report's
  /// epsilon_wholesale_equivalent and the carry's wholesale_spent.
  double wholesale_spent_ = 0.0;
  std::deque<WindowJob> backlog_;
  StreamReport& report_;
  bool busy_ = false;
  /// A completed window's output has not reached the sink yet.
  bool awaiting_publish_ = false;
  bool evict_when_drained_ = false;
  std::chrono::steady_clock::time_point last_arrival_{};
  std::chrono::steady_clock::time_point oldest_uncovered_at_{};
};

}  // namespace frt

#endif  // FRT_SERVICE_FEED_SESSION_H_
