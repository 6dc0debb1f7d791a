// Re-entrant task executor shared by the batch runtime and the multi-feed
// service.
//
// The workers drain one queue of closures. Submit() enqueues a
// fire-and-forget task: the serving layer schedules one whole-window
// anonymization job per task, so many independent feeds multiplex onto
// one set of workers. Run(n, fn) is a fork-join over the indices [0, n)
// whose state — fn, an atomic next index, a done count — belongs to that
// one call. The caller claims indices itself and enqueues up to
// min(n - 1, workers) helper tasks that claim the rest, so whichever
// thread is free takes the next index and one straggling index never
// holds the others back. Because the caller always makes progress on its
// own, Runs may nest inside Submit()ted tasks (a window job fans its
// shards and its audit out over the pool that runs it) and any number of
// Runs may be in flight at once; none can deadlock waiting for a worker.
//
// Determinism contract: the pool schedules *where* a task runs, never what
// it computes. Callers that write results to pre-sized per-index slots and
// pre-fork any RNG streams (as BatchRunner does) get bit-identical output
// at every worker count.

#ifndef FRT_RUNTIME_WORK_STEALING_POOL_H_
#define FRT_RUNTIME_WORK_STEALING_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace frt {

/// \brief Persistent pool of worker threads executing submitted tasks and
/// re-entrant fork-join index runs.
class WorkStealingPool {
 public:
  /// Spawns the workers; 0 means hardware concurrency. A 1-worker pool
  /// spawns no threads and runs every task inline on the caller.
  explicit WorkStealingPool(unsigned num_threads = 0);

  /// Runs every task still queued, then joins the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// \brief Invokes fn(i) for every i in [0, n); returns once all
  /// invocations have completed.
  ///
  /// `fn` must be safe to call concurrently for distinct indices and must
  /// not throw. It may itself call Run or Submit on this pool, and Run may
  /// be called from any thread, including a pool worker.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  /// \brief Enqueues a fire-and-forget task for asynchronous execution on
  /// the workers; returns immediately. The task must not throw. On a
  /// 1-worker pool it runs inline on the caller.
  void Submit(std::function<void()> task);

  /// Blocks until every queued task — Submit()ted ones and Run helpers —
  /// has finished. The end-of-run barrier; not for use on a worker.
  void WaitIdle();

  unsigned num_workers() const { return num_workers_; }

 private:
  void WorkerLoop(unsigned id);
  /// Wakes up to `n` idle workers, most recently idle first. Caller holds
  /// mu_.
  void WakeIdle(size_t n);

  unsigned num_workers_ = 1;
  std::vector<std::thread> threads_;

  // Window jobs and shard tasks are milliseconds-plus, so one central
  // queue under one mutex is noise next to the task bodies. `pending_`
  // counts queued + executing tasks and gates WaitIdle.
  //
  // Idle workers wait on their own condition variable and are woken last
  // idle first, so a feed's next window job tends to land on the worker
  // that ran the previous one, whose cache and malloc arena still hold
  // that window's memory. Woken in arrival order, the jobs would rotate
  // over the workers and every worker's arena would keep a window's worth
  // of freed memory (peak RSS growing with the worker count).
  struct Idler {
    std::condition_variable cv;
    bool woken = false;
  };
  std::mutex mu_;
  std::vector<std::unique_ptr<Idler>> idlers_;
  std::vector<unsigned> idle_;  ///< stack of idle worker ids
  std::condition_variable drained_cv_;
  std::deque<std::function<void()>> tasks_;
  size_t pending_ = 0;
  bool shutdown_ = false;
};

}  // namespace frt

#endif  // FRT_RUNTIME_WORK_STEALING_POOL_H_
