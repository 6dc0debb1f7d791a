// Per-feed streaming vocabulary: the window configuration and the reports.
//
// Windows are executed by one path, the ServiceDispatcher
// (service/dispatcher.h); frt_stream is a one-feed client of it. This
// header holds the types that path shares with its callers, next to the
// WindowAssembler ring buffer that gives windows their geometry.
//
// Privacy accounting: within one window every moving object appears in
// exactly one shard, so the window costs eps_G + eps_L by parallel
// composition. Across windows the same object-id space may reappear (the
// stream is a feed, not a partition), so an object's releases compose
// SEQUENTIALLY. One ledger enforces that, an ObjectBudgetAccountant per
// feed; which budget is set selects what it counts as one object (setting
// both is an error):
//
//   wholesale   — the whole feed is one object: every window's spend is
//                 summed against `total_budget` regardless of which
//                 objects it contained. Sound but pessimistic (objects
//                 that never reappear are billed as if they did). With
//                 neither budget set the ledger only tracks.
//   per-object  — `per_object_budget` > 0: the ledger is keyed by object
//                 id, enforcing the budget on each object's own
//                 cumulative spend, which is exactly the paper's
//                 per-object guarantee. A window is refused only when it
//                 contains an object that cannot afford it — and with
//                 `evict_exhausted` the exhausted objects are evicted
//                 from the window while the rest still publishes.
//
// Each session admits its closed windows against its own ledger
// (FeedSession, service/feed_session.h). Refused windows (and evicted
// trajectories) are counted and dropped, never published with a weaker
// guarantee.

#ifndef FRT_STREAM_STREAM_TYPES_H_
#define FRT_STREAM_STREAM_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "runtime/batch_runner.h"
#include "traj/dataset.h"

namespace frt {

/// Why a window left the assembler.
enum class WindowClose {
  kCount,     ///< the buffer reached window_size arrivals
  kDeadline,  ///< the oldest uncovered arrival hit close_after_ms
  kFinal,     ///< end of stream: the trailing partial window
};

/// \brief Delay (ms) before a close_after_ms timer fires.
///
/// The deadline is an SLO — the window must be CLOSED by then — so the
/// timer is armed a guard margin (an eighth of the deadline, at most
/// 25 ms) early; the close plus its scheduler wake-up slack then lands
/// before the deadline instead of straddling it, even on a loaded host.
inline int64_t CloseTimerDelay(int64_t close_after_ms) {
  const int64_t guard_ms =
      std::min<int64_t>(close_after_ms / 8 + 1, 25);
  return close_after_ms > guard_ms ? close_after_ms - guard_ms : 0;
}

/// Per-feed streaming configuration: every session of a service applies
/// it to its own feed.
struct StreamConfig {
  /// Per-window execution: pipeline budgets, shard count, audit. The
  /// service runs every window on its shared pool (sized by
  /// ServiceConfig::pool_threads), so `batch.pool` is set by it and
  /// ignored here.
  BatchRunnerConfig batch;
  /// Trajectories per window. The final window may be smaller.
  size_t window_size = 1000;
  /// Arrivals between consecutive window starts. 0 (default) means
  /// window_size, i.e. tumbling windows; values in [1, window_size) give
  /// sliding windows overlapping by window_size - stride trajectories.
  /// Clamped to [1, window_size].
  size_t window_stride = 0;
  /// Wholesale: total epsilon budget summed over every window. 0 disables
  /// enforcement: the ledger still tracks, but no window is ever refused.
  double total_budget = 0.0;
  /// Per-object: epsilon budget each object-id may cumulatively spend
  /// across the windows that contain it. > 0 keys the ledger by object id
  /// (and then total_budget must be 0).
  double per_object_budget = 0.0;
  /// Per-object only: when a window contains exhausted objects, evict just
  /// those trajectories and publish the rest, instead of refusing the
  /// whole window. A window whose every object is exhausted is still
  /// refused outright.
  bool evict_exhausted = false;
  /// End the run at the first refused window instead of draining (and
  /// counting) the rest of the feed. Under a wholesale budget the
  /// per-window cost is constant, so the first refusal proves no later
  /// window can ever fit — on an unbounded feed this is the only way the
  /// run terminates once the budget is spent. Per-object, a later window
  /// of fresh objects could still fit; stopping is then simply "end
  /// service at the first refusal". Off by default: finite batch feeds
  /// usually want the refused-trajectory tally.
  bool stop_when_exhausted = false;
  /// Wall-clock closure deadline in milliseconds: a non-empty window is
  /// closed — and published, possibly short of window_size — no later than
  /// close_after_ms after its oldest uncovered arrival was ingested (the
  /// timer is armed a small guard early, see CloseTimerDelay). This is the
  /// latency-SLO lever for trickle feeds, where count-based closure alone
  /// would hold arrivals hostage until the feed fills a window. 0
  /// (default) disables: windows close on count or end of stream only,
  /// and so does a value past the clock's range (DueAfter: "never").
  int64_t close_after_ms = 0;

  /// True when the ledger is keyed by object id (see file comment).
  bool per_object() const { return per_object_budget > 0.0; }

  /// The budget the ledger enforces on each of its keys; 0 when it only
  /// tracks. At most one budget is set (ServiceDispatcher::Start).
  double budget() const {
    return per_object() ? per_object_budget : total_budget;
  }
};

/// Diagnostics of one published window.
struct WindowReport {
  /// 0-based per-feed index in arrival order (refused windows keep their
  /// index), continuing across session generations and restarts.
  size_t index = 0;
  /// What closed this window: a full count, the close_after_ms deadline,
  /// or the end of the stream.
  WindowClose close_reason = WindowClose::kCount;
  /// Oldest uncovered arrival -> close, and close -> publish.
  /// close_wait_ms is the latency --close-after-ms bounds.
  double close_wait_ms = 0.0;
  double publish_latency_ms = 0.0;
  size_t trajectories = 0;
  /// Exhausted objects evicted from this window before anonymization
  /// (per-object with evict_exhausted only).
  size_t trajectories_evicted = 0;
  /// Epsilon this window consumed (max over its shards).
  double epsilon_spent = 0.0;
  /// Running guarantee after this window: cumulative ledger total under
  /// a wholesale budget; maximum per-object cumulative spend under a
  /// per-object budget.
  double epsilon_total = 0.0;
  /// Batch diagnostics (shard skew, edits, wall time) of this window.
  BatchReport batch;
};

/// Aggregated diagnostics of one feed's stream, cumulative over its
/// session generations (the dispatcher's feed slot owns it; each session
/// writes through to it).
struct StreamReport {
  size_t windows_closed = 0;     ///< assembled from the input
  size_t windows_published = 0;  ///< anonymized and emitted
  size_t windows_refused = 0;    ///< dropped: budget exhausted
  /// Windows closed by the close_after_ms deadline rather than by count
  /// or end of stream.
  size_t windows_deadline_closed = 0;
  size_t trajectories_in = 0;
  size_t trajectories_published = 0;
  size_t trajectories_refused = 0;
  /// Exhausted objects evicted from otherwise-published windows
  /// (per-object with evict_exhausted only).
  size_t trajectories_evicted = 0;
  /// End-to-end guarantee of the published stream: ledger total under
  /// a wholesale budget (sequential composition over windows); maximum
  /// per-object cumulative spend under a per-object budget.
  double epsilon_spent = 0.0;
  /// Per-object diagnostics: what the wholesale ledger would have charged
  /// (sum over published windows) — the pessimism gap versus epsilon_spent.
  double epsilon_wholesale_equivalent = 0.0;
};

/// True when the feed dropped anything on budget — a refused window or an
/// evicted trajectory. The CLIs map this to exit code 3.
inline bool StreamHadRefusals(const StreamReport& report) {
  return report.windows_refused > 0 || report.trajectories_evicted > 0;
}

}  // namespace frt

#endif  // FRT_STREAM_STREAM_TYPES_H_
