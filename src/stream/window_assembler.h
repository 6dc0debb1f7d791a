// WindowAssembler: the ring-buffer window geometry of every feed session
// (service/feed_session.h). Its vocabulary — close reasons, the per-feed
// config, reports — lives next door in stream/stream_types.h.
//
// Arrivals accumulate in a deque; a window "closes over" the whole buffer,
// then the oldest `stride` arrivals retire. stride == window_size gives
// tumbling windows (the buffer clears), stride < window_size gives sliding
// windows whose tail overlaps into the next window. `uncovered()` counts
// arrivals not yet part of any closed window — what a trailing partial
// window (end of stream, or a time-based closure deadline) must still
// cover.
//
// The assembler owns only the geometry. Policy — WHEN to close (count
// full, wall-clock deadline, end of stream) and what to do with the closed
// window (admission, anonymization, accounting) — stays with the session
// and the dispatcher that drives it.

#ifndef FRT_STREAM_WINDOW_ASSEMBLER_H_
#define FRT_STREAM_WINDOW_ASSEMBLER_H_

#include <cstddef>
#include <deque>
#include <utility>

#include "common/result.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace frt {

/// \brief Assembles count/stride windows from a stream of arrivals.
class WindowAssembler {
 public:
  /// Geometry is clamped: window_size 0 becomes 1; stride 0 or
  /// > window_size becomes window_size (tumbling).
  explicit WindowAssembler(size_t window_size, size_t stride = 0)
      : window_size_(window_size == 0 ? 1 : window_size),
        stride_(stride == 0 || stride > window_size_ ? window_size_
                                                     : stride) {}

  /// Buffers one arrival.
  void Push(Trajectory t) {
    pending_.push_back(std::move(t));
    ++uncovered_;
  }

  /// True when the buffer holds a full window's worth of arrivals.
  bool WindowReady() const { return pending_.size() >= window_size_; }

  /// Arrivals not yet covered by any closed window. Non-zero means a
  /// deadline or end-of-stream closure still owes these a window.
  size_t uncovered() const { return uncovered_; }

  /// Arrivals currently buffered (covered overlap tail included).
  size_t pending() const { return pending_.size(); }

  size_t window_size() const { return window_size_; }
  size_t stride() const { return stride_; }

  /// \brief Closes a window over the whole buffer and retires the oldest
  /// `stride` arrivals (the remaining tail overlaps into the next window).
  ///
  /// Works for full windows and for deadline-closed partial ones alike —
  /// the buffer may hold fewer than window_size arrivals. Returns
  /// AlreadyExists (from Dataset::Add) when two buffered trajectories
  /// share an id; callers wrap it with their window index.
  Result<Dataset> CloseWindow() {
    Dataset window;
    // Within one window each object must appear exactly once (the
    // parallel-composition argument puts each object in one shard). With
    // overlap the tail re-enters the next window, so it must be copied,
    // not moved.
    const bool overlaps = stride_ < window_size_ && !pending_.empty();
    for (auto& t : pending_) {
      FRT_RETURN_IF_ERROR(overlaps ? window.Add(t)
                                   : window.Add(std::move(t)));
    }
    if (overlaps) {
      for (size_t i = 0; i < stride_ && !pending_.empty(); ++i) {
        pending_.pop_front();
      }
    } else {
      pending_.clear();
    }
    uncovered_ = 0;
    return window;
  }

  /// Discards every buffered arrival: the feed ends without a trailing
  /// window (a quarantined feed's tail is never published).
  void Clear() {
    pending_.clear();
    uncovered_ = 0;
  }

  /// \brief Closes the end-of-stream window over the uncovered tail.
  /// Nothing re-enters a later window, so the buffer is moved out wholesale
  /// and left empty.
  Result<Dataset> CloseFinal() {
    Dataset window;
    for (auto& t : pending_) {
      FRT_RETURN_IF_ERROR(window.Add(std::move(t)));
    }
    pending_.clear();
    uncovered_ = 0;
    return window;
  }

 private:
  size_t window_size_;
  size_t stride_;
  std::deque<Trajectory> pending_;
  size_t uncovered_ = 0;
};

}  // namespace frt

#endif  // FRT_STREAM_WINDOW_ASSEMBLER_H_
