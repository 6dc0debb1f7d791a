#include "service/metrics_exporter.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/deadline.h"
#include "common/strings.h"

namespace frt {

namespace {

int64_t UnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricsExporter::MetricsExporter(
    Options options, const obs::SnapshotBoard<ServiceSnapshot>& board)
    : options_(std::move(options)), board_(board) {}

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
  stop_.store(false);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MetricsExporter::Stop() {
  if (!started_) return;
  board_.Notify([this] { stop_.store(true); });
  thread_.join();
  started_ = false;
  if (owns_out_ && out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
}

void MetricsExporter::Loop() {
  auto wake = kNever;
  for (;;) {
    const auto latest = board_.WaitNewer(written_version_, wake,
                                         [this] { return stop_.load(); });
    // Stopping, the final snapshot is still written on the way out.
    const bool unwritten = latest.version != written_version_;
    if (!unwritten && stop_.load()) return;
    const ServiceSnapshot& s = *latest.snapshot;
    const auto now = std::chrono::steady_clock::now();
    if (unwritten || now > StaleAfter(s)) Emit(s);  // stale: seq repeats
    written_version_ = latest.version;
    // Wake when it turns stale, then once per interval while it stays so.
    wake = std::max(StaleAfter(s), DueAfter(now, s.metrics_interval_ms));
  }
}

void MetricsExporter::Emit(const ServiceSnapshot& s) {
  if (!writable_) return;
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

  const StageSummary& close_wait = s.stages[kStageCloseWait];
  const StageSummary& publish = s.stages[kStagePublish];
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
      publish_per_s, close_wait.p50_ms, close_wait.p99_ms, publish.p50_ms,
      publish.p99_ms, s.epsilon_spent_max,
      static_cast<unsigned long long>(s.checkpoint_seq), s.checkpoint_age_ms,
      s.checkpoints_written, s.checkpoint_errors);
  if (options_.per_feed) {
    for (const ServiceSnapshot::Feed& feed : s.feeds_detail) {
      line += StrFormat(
          "frt_feed ts_ms=%lld feed=%s eps_spent=%.6f eps_remaining=%g "
          "windows_published=%zu windows_refused=%zu\n",
          static_cast<long long>(ts), feed.feed.c_str(),
          feed.stream.epsilon_spent, feed.epsilon_remaining,
          feed.stream.windows_published, feed.stream.windows_refused);
    }
  }
  for (size_t i = 0; i < kNumServiceStages; ++i) {
    const StageSummary& stage = s.stages[i];
    line += StrFormat(
        "frt_stage ts_ms=%lld stage=%s count=%llu p50_ms=%.3f p99_ms=%.3f "
        "max_ms=%.3f mean_ms=%.3f\n",
        static_cast<long long>(ts), kServiceStageNames[i],
        static_cast<unsigned long long>(stage.count), stage.p50_ms,
        stage.p99_ms, stage.max_ms, stage.mean_ms);
  }
  if (std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
      std::fflush(out_) != 0) {
    std::fprintf(stderr,
                 "metrics exporter: write to %s failed (%s); metrics "
                 "disabled for the rest of the run\n",
                 options_.path.c_str(), std::strerror(errno));
    writable_ = false;
    return;
  }
  lines_written_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace frt
