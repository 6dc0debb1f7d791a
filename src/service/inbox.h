// DispatcherInbox: the one place the dispatcher thread blocks.
//
// Two lanes under one lock. Arrivals (trajectories and quarantine markers
// from any number of ingest threads) queue in a bounded FIFO whose
// capacity is the service's ingress backpressure: Offer() blocks while it
// is full. Finished window jobs from the pool's workers queue in an
// unbounded list; at most max_in_flight jobs exist at once, so Deliver()
// never blocks — not even on a 1-worker pool, which runs the job inline
// on the dispatcher thread itself.
//
// The one consumer calls Wait(wake, take_arrivals), which returns every
// finished job and, when asked, at most one arrival. A finished job wakes
// it whatever it waits for; an arrival only while it takes arrivals. The
// wait mode is kept under the lock, so a producer filling the lane behind
// a paused dispatcher (frt_stream pauses ingress on every window) never
// wakes it.
//
// Close() ends the arrival lane (idempotent); jobs in flight still come
// home on the finished lane. An Offer() blocked on a full lane, or made
// after the close, returns false and the producer keeps its item.
// Arrivals queued before the close are still taken, and only then does
// Wait() report kClosed, so no accepted arrival is lost to a close.
//
// The item types are template parameters only so that the test can use
// plain values.

#ifndef FRT_SERVICE_INBOX_H_
#define FRT_SERVICE_INBOX_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace frt {

/// What one DispatcherInbox::Wait() took from the arrival lane.
enum class InboxTake {
  kArrival,  ///< *arrival holds the lane's front
  kNone,     ///< no arrival: not asked for, `wake` passed, or only
             ///< finished jobs were ready
  kClosed,   ///< arrivals were asked for; the lane is closed and drained
};

template <typename Arrival, typename Done>
class DispatcherInbox {
 public:
  /// Capacity 0 is remapped to 1 (a zero-capacity lane would deadlock).
  explicit DispatcherInbox(size_t arrival_capacity)
      : capacity_(std::max<size_t>(arrival_capacity, 1)) {}

  DispatcherInbox(const DispatcherInbox&) = delete;
  DispatcherInbox& operator=(const DispatcherInbox&) = delete;

  /// Blocks while the arrival lane is full. Returns false (dropping
  /// `arrival`) when the lane was closed before space became available.
  bool Offer(Arrival arrival) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return arrivals_.size() < capacity_ || closed_; });
    if (closed_) return false;
    arrivals_.push_back(std::move(arrival));
    const bool wake = waiting_ == Waiting::kArrivals;
    lock.unlock();
    if (wake) wake_.notify_one();
    return true;
  }

  /// Hands a finished job to the consumer, waking it if it waits.
  void Deliver(Done done) {
    std::unique_lock<std::mutex> lock(mu_);
    finished_.push_back(std::move(done));
    const bool wake = waiting_ != Waiting::kNo;
    lock.unlock();
    if (wake) wake_.notify_one();
  }

  /// Ends the consumer's current (or next) Wait() as if `wake` passed
  /// (a snapshot-cadence retune).
  void Wake() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      woken_ = true;
    }
    wake_.notify_one();
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    wake_.notify_all();
  }

  /// \brief Blocks until a finished job is queued, or — with
  /// `take_arrivals` — an arrival is queued or the lane is closed, or until
  /// `wake` or a Wake(). Appends every finished job to `*finished`, then,
  /// with `take_arrivals`, pops at most one arrival into `*arrival`.
  template <typename Clock, typename Duration>
  InboxTake Wait(std::chrono::time_point<Clock, Duration> wake,
                 bool take_arrivals, std::vector<Done>* finished,
                 Arrival* arrival) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] {
      return woken_ || !finished_.empty() ||
             (take_arrivals && (!arrivals_.empty() || closed_));
    };
    if (!ready()) {
      waiting_ = take_arrivals ? Waiting::kArrivals : Waiting::kFinished;
      wake_.wait_until(lock, wake, ready);
      waiting_ = Waiting::kNo;
    }
    woken_ = false;
    for (Done& done : finished_) finished->push_back(std::move(done));
    finished_.clear();
    if (!take_arrivals) return InboxTake::kNone;
    if (arrivals_.empty()) {
      return closed_ ? InboxTake::kClosed : InboxTake::kNone;
    }
    *arrival = std::move(arrivals_.front());
    arrivals_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return InboxTake::kArrival;
  }

  /// Arrivals queued (the service's queue_depth).
  size_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_.size();
  }

 private:
  /// What the consumer is blocked on, if anything.
  enum class Waiting { kNo, kFinished, kArrivals };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;  ///< producers blocked on a full lane
  std::condition_variable wake_;      ///< the consumer
  std::deque<Arrival> arrivals_;
  std::vector<Done> finished_;
  Waiting waiting_ = Waiting::kNo;
  bool woken_ = false;  ///< a Wake() the consumer has not returned for
  bool closed_ = false;
};

}  // namespace frt

#endif  // FRT_SERVICE_INBOX_H_
