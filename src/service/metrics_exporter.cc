#include "service/metrics_exporter.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace frt {

namespace {

int64_t UnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricsExporter::MetricsExporter(Options options)
    : options_(std::move(options)) {
  if (options_.interval_ms < 1) options_.interval_ms = 1;
  interval_ms_.store(options_.interval_ms, std::memory_order_relaxed);
}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::Start() {
  if (started_) {
    return Status::FailedPrecondition("metrics exporter already started");
  }
  if (options_.path.empty()) {
    return Status::InvalidArgument("metrics output path must not be empty");
  }
  if (options_.path == "-") {
    out_ = stderr;
    owns_out_ = false;
  } else {
    out_ = std::fopen(options_.path.c_str(), "a");
    if (out_ == nullptr) {
      return Status::IOError("cannot open metrics output " + options_.path +
                             ": " + std::strerror(errno));
    }
    owns_out_ = true;
  }
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MetricsExporter::Publish(MetricsSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  latest_ = std::move(snapshot);
  has_snapshot_ = true;
}

void MetricsExporter::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  started_ = false;
  // Final flush: the loop never emits on the stop wakeup (it might race a
  // Publish that landed between the wake and the copy), so the last
  // partial interval is written here, after the join, where the latest
  // snapshot is guaranteed to be the publisher's final word.
  bool emit_final = false;
  MetricsSnapshot final_snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_snapshot_ && writable_) {
      final_snapshot = latest_;
      emit_final = true;
    }
  }
  if (emit_final) {
    const bool ok = Emit(final_snapshot);
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      ++lines_written_;
    } else {
      writable_ = false;
    }
  }
  if (owns_out_ && out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
}

void MetricsExporter::SetIntervalMs(int64_t ms) {
  {
    // Under mu_ so the generation bump cannot slip between the loop's
    // predicate check and its wait (a lost wake-up).
    std::lock_guard<std::mutex> lock(mu_);
    interval_ms_.store(std::max<int64_t>(ms, 1), std::memory_order_relaxed);
    ++interval_generation_;
  }
  cv_.notify_all();
}

size_t MetricsExporter::waits_begun() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waits_begun_;
}

size_t MetricsExporter::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

void MetricsExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Re-read every iteration: /control may retune the cadence mid-run.
    // A retune wakes the wait and restarts it with the new interval.
    const auto interval = std::chrono::milliseconds(
        interval_ms_.load(std::memory_order_relaxed));
    const uint64_t generation = interval_generation_;
    ++waits_begun_;
    const bool woken = cv_.wait_for(lock, interval, [&] {
      return stop_ || interval_generation_ != generation;
    });
    if (stop_) return;  // the final line is emitted by Stop(), post-join
    if (woken) continue;  // retuned: wait out the new interval instead
    if (has_snapshot_ && writable_) {
      // Copy under the lock, format/write outside it: a slow disk never
      // blocks Publish().
      const MetricsSnapshot snapshot = latest_;
      lock.unlock();
      const bool ok = Emit(snapshot);
      lock.lock();
      if (ok) {
        ++lines_written_;
      } else {
        writable_ = false;
      }
    }
  }
}

bool MetricsExporter::Emit(const MetricsSnapshot& s) {
  const int64_t ts = UnixMillis();
  // Delta throughput between consecutive snapshots; 0 until two distinct
  // uptimes have been seen.
  double publish_per_s = 0.0;
  if (have_prev_ && s.uptime_ms > prev_uptime_ms_) {
    publish_per_s =
        1000.0 *
        static_cast<double>(s.trajectories_published - prev_published_) /
        static_cast<double>(s.uptime_ms - prev_uptime_ms_);
  }
  have_prev_ = true;
  prev_published_ = s.trajectories_published;
  prev_uptime_ms_ = s.uptime_ms;

  std::string line = StrFormat(
      "frt_metrics ts_ms=%lld seq=%llu uptime_ms=%lld feeds=%zu "
      "active_sessions=%zu queue_depth=%zu backlog_windows=%zu "
      "in_flight=%zu windows_closed=%zu windows_published=%zu "
      "windows_refused=%zu windows_deadline_closed=%zu trajs_in=%zu "
      "trajs_published=%zu feeds_quarantined=%zu publish_per_s=%.1f "
      "close_wait_p50_ms=%.2f "
      "close_wait_p99_ms=%.2f publish_p50_ms=%.2f publish_p99_ms=%.2f "
      "eps_spent_max=%.6f ckpt_seq=%llu ckpt_age_ms=%.0f ckpt_written=%zu "
      "ckpt_errors=%zu\n",
      static_cast<long long>(ts), static_cast<unsigned long long>(s.seq),
      static_cast<long long>(s.uptime_ms), s.feeds, s.active_sessions,
      s.queue_depth, s.backlog_windows, s.in_flight, s.windows_closed,
      s.windows_published, s.windows_refused, s.windows_deadline_closed,
      s.trajectories_in, s.trajectories_published, s.feeds_quarantined,
      publish_per_s,
      s.close_wait_p50_ms, s.close_wait_p99_ms, s.publish_p50_ms,
      s.publish_p99_ms, s.epsilon_spent_max,
      static_cast<unsigned long long>(s.checkpoint_seq), s.checkpoint_age_ms,
      s.checkpoints_written, s.checkpoint_errors);
  if (options_.per_feed) {
    for (const MetricsSnapshot::Feed& feed : s.feeds_detail) {
      line += StrFormat(
          "frt_feed ts_ms=%lld feed=%s eps_spent=%.6f eps_remaining=%g "
          "windows_published=%zu windows_refused=%zu\n",
          static_cast<long long>(ts), feed.feed.c_str(), feed.epsilon_spent,
          feed.epsilon_remaining, feed.windows_published,
          feed.windows_refused);
    }
  }
  if (options_.histograms) {
    for (const MetricsSnapshot::Stage& stage : s.stages) {
      line += StrFormat(
          "frt_stage ts_ms=%lld stage=%s count=%llu p50_ms=%.3f "
          "p99_ms=%.3f max_ms=%.3f mean_ms=%.3f\n",
          static_cast<long long>(ts), stage.stage.c_str(),
          static_cast<unsigned long long>(stage.count), stage.p50_ms,
          stage.p99_ms, stage.max_ms, stage.mean_ms);
    }
  }
  if (std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
      std::fflush(out_) != 0) {
    std::fprintf(stderr,
                 "metrics exporter: write to %s failed (%s); metrics "
                 "disabled for the rest of the run\n",
                 options_.path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace frt
