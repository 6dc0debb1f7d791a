#include "runtime/work_stealing_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace frt {

namespace {

/// State of one Run call, shared by its caller and its helper tasks. A
/// helper that starts after every index was claimed finds nothing to do
/// and never dereferences `fn`, so the state may outlive the call.
struct RunState {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
};

/// Claims and runs indices until none are left.
void Drain(RunState& state) {
  for (size_t i = state.next++; i < state.n; i = state.next++) {
    (*state.fn)(i);
    if (++state.done == state.n) {
      std::lock_guard<std::mutex> lock(state.mu);
      state.cv.notify_all();
    }
  }
}

}  // namespace

WorkStealingPool::WorkStealingPool(unsigned num_threads) {
  num_workers_ =
      num_threads != 0 ? num_threads : std::thread::hardware_concurrency();
  if (num_workers_ == 0) num_workers_ = 1;
  if (num_workers_ == 1) return;  // inline execution, no threads
  idlers_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    idlers_.push_back(std::make_unique<Idler>());
  }
  threads_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    WakeIdle(num_workers_);
  }
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<RunState>();
  state->fn = &fn;
  state->n = n;
  const size_t helpers = std::min<size_t>(n - 1, num_workers_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Ahead of queued jobs: finishing a started Run comes before
    // starting new work.
    for (size_t h = 0; h < helpers; ++h) {
      tasks_.push_front([state] { Drain(*state); });
    }
    pending_ += helpers;
    WakeIdle(helpers);
  }
  Drain(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == n; });
}

void WorkStealingPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();  // 1-worker pool: inline on the caller, like Run
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ++pending_;
    WakeIdle(1);
  }
}

void WorkStealingPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return pending_ == 0; });
}

void WorkStealingPool::WakeIdle(size_t n) {
  for (; n > 0 && !idle_.empty(); --n) {
    Idler& idler = *idlers_[idle_.back()];
    idle_.pop_back();
    idler.woken = true;
    idler.cv.notify_one();
  }
}

void WorkStealingPool::WorkerLoop(unsigned id) {
  obs::SetTraceThreadName("pool-worker-" + std::to_string(id));
  for (;;) {
    std::function<void()> task;
    const bool tracing = obs::TraceEnabled();
    const auto idle_start = tracing ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      Idler& idler = *idlers_[id];
      while (!shutdown_ && tasks_.empty()) {
        idle_.push_back(id);
        idler.cv.wait(lock, [&] { return idler.woken; });
        idler.woken = false;
      }
      // Queued tasks drain before shutdown, so the destructor never
      // strands an accepted job.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    if (tracing && obs::TraceEnabled()) {
      // Only report waits long enough to matter; sub-10us wakeups would
      // swamp the trace with scheduling noise.
      const auto idle_end = std::chrono::steady_clock::now();
      if (idle_end - idle_start >= std::chrono::microseconds(10)) {
        obs::EmitSpan("pool_idle", obs::SpanCategory::kPool, {}, idle_start,
                      idle_end);
      }
    }
    {
      obs::ScopedSpan task_span("pool_task", obs::SpanCategory::kPool);
      task();
    }
    task = nullptr;  // release the task's captures before going idle
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) drained_cv_.notify_all();
  }
}

}  // namespace frt
