#include "service/feed_session.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace frt {

// Memory bound: ids tracked exactly (the rest fold into a conservative
// floor).
constexpr size_t kMaxTrackedObjects = size_t{1} << 20;

FeedSession::FeedSession(std::string feed, const StreamConfig& config,
                         uint64_t master_seed, uint64_t generation,
                         const FeedBudgetCarry& carry, StreamReport* report)
    : feed_(std::move(feed)),
      config_(config),
      generation_(generation),
      next_index_(carry.windows_closed),
      assembler_(config.window_size, config.window_stride),
      rng_(FeedStreamSeed(master_seed, feed_, generation)),
      wholesale_spent_(carry.wholesale_spent),
      report_(*report) {
  if (config_.budget() > 0.0) {
    ledger_ = ObjectBudgetAccountant(config_.budget());
  }
  ledger_.set_max_tracked_objects(kMaxTrackedObjects);
  ledger_.PreloadFloor(carry.LedgerFloor(config_.per_object()));
  report_.epsilon_spent = ledger_.max_spent();
  report_.epsilon_wholesale_equivalent = wholesale_spent_;
}

void FeedSession::Offer(Trajectory t,
                        std::chrono::steady_clock::time_point now) {
  last_arrival_ = now;
  if (assembler_.uncovered() == 0) oldest_uncovered_at_ = now;
  assembler_.Push(std::move(t));
  ++report_.trajectories_in;
}

Status FeedSession::CloseWindow(WindowClose reason,
                                std::chrono::steady_clock::time_point now) {
  const std::chrono::steady_clock::time_point oldest = oldest_uncovered_at_;
  Result<Dataset> window = reason == WindowClose::kFinal
                               ? assembler_.CloseFinal()
                               : assembler_.CloseWindow();
  if (!window.ok()) {
    return Status::InvalidArgument(
        "feed " + feed_ + " window " + std::to_string(next_index_) + ": " +
        window.status().message() +
        " (each object may appear once per window)");
  }
  WindowJob job;
  job.feed = feed_;
  job.generation = generation_;
  // Indices continue across session generations (next_index_ starts at
  // the carry), so a revived feed's windows never repeat an index.
  job.index = next_index_++;
  job.reason = reason;
  job.window = std::move(*window);
  // Fork at close time, in close order, BEFORE admission: the per-feed RNG
  // stream is then a pure function of the feed's own arrival sequence,
  // never of how much budget remains or what other feeds are doing.
  job.rng = rng_.Fork();
  job.oldest_arrival = oldest;
  job.closed_at = now;
  job.close_wait_ms = MillisBetween(oldest, now);
  // The window's assembly phase: oldest uncovered arrival -> close.
  obs::EmitSpan("assemble", obs::SpanCategory::kWindow, feed_, oldest, now);
  ++report_.windows_closed;
  if (reason == WindowClose::kDeadline) ++report_.windows_deadline_closed;
  backlog_.push_back(std::move(job));
  return Status::OK();
}

bool FeedSession::Admit(WindowJob* job) {
  const double window_epsilon = config_.batch.pipeline.epsilon_global +
                                config_.batch.pipeline.epsilon_local;
  if (!ledger_.enforcing()) return true;
  Dataset& window = job->window;
  std::vector<TrajId> keys = {kFeedWideObject};
  if (config_.per_object()) {
    keys.clear();
    keys.reserve(window.size());
    for (const auto& t : window.trajectories()) keys.push_back(t.id());
  }
  std::vector<TrajId> admissible, exhausted;
  ledger_.FilterAdmissible(keys, window_epsilon, &admissible, &exhausted);
  if (exhausted.empty()) return true;
  // Without per-object keys nothing is admissible: the window is refused.
  if (!config_.evict_exhausted || admissible.empty()) {
    ++report_.windows_refused;
    report_.trajectories_refused += window.size();
    const double spent = ledger_.spent(exhausted.front());
    if (config_.per_object()) {
      FRT_LOG(Warning) << "feed " << feed_
                       << ": per-object budget exhausted: refusing window #"
                       << job->index << " (" << window.size()
                       << " trajectories, " << exhausted.size()
                       << " exhausted object(s); object " << exhausted.front()
                       << " spent " << spent << " of "
                       << ledger_.per_object_budget() << ", next window needs "
                       << window_epsilon << ")";
    } else {
      FRT_LOG(Warning) << "feed " << feed_
                       << ": privacy budget exhausted: refusing window #"
                       << job->index << " (" << window.size()
                       << " trajectories); spent " << spent << " of "
                       << ledger_.per_object_budget()
                       << ", next window needs " << window_epsilon;
    }
    return false;
  }
  std::unordered_set<TrajId> drop(exhausted.begin(), exhausted.end());
  std::vector<Trajectory> kept;
  kept.reserve(admissible.size());
  for (auto& t : window.mutable_trajectories()) {
    if (drop.count(t.id()) == 0) kept.push_back(std::move(t));
  }
  window = Dataset(std::move(kept));
  job->evicted = exhausted.size();
  report_.trajectories_evicted += exhausted.size();
  FRT_LOG(Warning) << "feed " << feed_ << ": per-object budget: evicting "
                   << exhausted.size()
                   << " exhausted object(s) from window #" << job->index
                   << " (" << window.size() << " remain; object "
                   << exhausted.front() << " spent "
                   << ledger_.spent(exhausted.front()) << " of "
                   << ledger_.per_object_budget() << ")";
  return true;
}

std::optional<WindowJob> FeedSession::NextSubmittable() {
  if (busy_) return std::nullopt;
  while (!backlog_.empty()) {
    WindowJob job = std::move(backlog_.front());
    backlog_.pop_front();
    if (!Admit(&job)) continue;
    busy_ = true;
    return job;
  }
  return std::nullopt;
}

Result<WindowReport> FeedSession::Complete(const WindowJob& job,
                                           const Dataset& published,
                                           const BatchReport& batch,
                                           double publish_latency_ms) {
  busy_ = false;
  WindowReport window_report;
  window_report.index = job.index;
  window_report.close_reason = job.reason;
  window_report.close_wait_ms = job.close_wait_ms;
  window_report.publish_latency_ms = publish_latency_ms;
  window_report.trajectories = published.size();
  window_report.trajectories_evicted = job.evicted;
  window_report.epsilon_spent = batch.epsilon_spent;
  window_report.batch = batch;
  // The id lists are consumed below; the sink gets only the scalar
  // diagnostics.
  window_report.batch.shard_object_ids.clear();
  if (window_report.epsilon_spent > 0.0) {
    // Charge the window's ledger keys (per object: exactly the ids the
    // batch consumed) at the window's spend (max over shards; uniform
    // per-shard epsilons make it exact). SpendWindow re-verifies
    // admission transactionally.
    std::vector<TrajId> keys = {kFeedWideObject};
    if (config_.per_object()) {
      keys.clear();
      keys.reserve(published.size());
      for (const auto& shard_ids : batch.shard_object_ids) {
        keys.insert(keys.end(), shard_ids.begin(), shard_ids.end());
      }
    }
    FRT_RETURN_IF_ERROR(
        ledger_.SpendWindow(keys, window_report.epsilon_spent));
    // Summed in both modes so per-object feeds can report the pessimism
    // gap.
    wholesale_spent_ += window_report.epsilon_spent;
  }
  window_report.epsilon_total = ledger_.max_spent();
  report_.epsilon_spent = window_report.epsilon_total;
  report_.epsilon_wholesale_equivalent = wholesale_spent_;
  awaiting_publish_ = true;
  return window_report;
}

void FeedSession::RecordPublished(const WindowReport& window_report) {
  // Split from Complete so the budget is spent either way but the window
  // only counts as published once the sink accepted it.
  awaiting_publish_ = false;
  ++report_.windows_published;
  report_.trajectories_published += window_report.trajectories;
}

FeedBudgetCarry FeedSession::Carry() const {
  FeedBudgetCarry carry;
  carry.wholesale_spent = wholesale_spent_;
  carry.per_object_floor = ledger_.max_spent();
  carry.windows_closed = next_index_;
  return carry;
}

}  // namespace frt
