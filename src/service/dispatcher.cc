#include "service/dispatcher.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "runtime/batch_runner.h"

namespace frt {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Summary of one latency histogram (exact count, ~1.6% quantile error).
StageSummary Summarize(const obs::Histogram& h) {
  return {h.count(), h.Quantile(0.50), h.Quantile(0.99), h.max_ms(),
          h.mean_ms()};
}

}  // namespace

ServiceDispatcher::ServiceDispatcher(ServiceConfig config, ServiceSink sink)
    : config_(std::move(config)), sink_(std::move(sink)) {
  // Normalize the window geometry exactly as WindowAssembler does, then
  // the service-level knobs.
  if (config_.stream.window_size == 0) config_.stream.window_size = 1;
  if (config_.stream.window_stride == 0 ||
      config_.stream.window_stride > config_.stream.window_size) {
    config_.stream.window_stride = config_.stream.window_size;
  }
  if (config_.pool_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.pool_threads = std::max(2u, hw);
  }
  if (config_.max_in_flight == 0) {
    config_.max_in_flight = 2 * config_.pool_threads;
  }
  if (config_.arrival_queue_capacity == 0) {
    config_.arrival_queue_capacity = 4 * config_.stream.window_size;
  }
  if (config_.max_backlog_windows == 0) {
    config_.max_backlog_windows = 4 * config_.max_in_flight;
  }
  SetMetricsIntervalMs(config_.metrics_interval_ms);
  if (config_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    config_.registry = owned_registry_.get();
  }
  obs::Registry& reg = *config_.registry;
  ctr_sessions_created_ = reg.GetCounter(
      "frt_serve_sessions_created_total", "Feed sessions opened (all generations)");
  ctr_sessions_evicted_ = reg.GetCounter(
      "frt_serve_sessions_evicted_total", "Feed sessions idle-evicted");
  ctr_windows_closed_ = reg.GetCounter(
      "frt_serve_windows_closed_total", "Windows closed (count, deadline, or final)");
  ctr_windows_published_ = reg.GetCounter(
      "frt_serve_windows_published_total", "Windows anonymized and handed to the sink");
  ctr_windows_refused_ = reg.GetCounter(
      "frt_serve_windows_refused_total", "Windows refused by budget admission");
  ctr_windows_deadline_closed_ = reg.GetCounter(
      "frt_serve_windows_deadline_closed_total",
      "Windows closed by the close-after-ms deadline");
  ctr_trajectories_in_ = reg.GetCounter(
      "frt_serve_trajectories_in_total", "Trajectories routed into sessions");
  ctr_trajectories_published_ = reg.GetCounter(
      "frt_serve_trajectories_published_total", "Trajectories in published windows");
  ctr_trajectories_refused_ = reg.GetCounter(
      "frt_serve_trajectories_refused_total",
      "Trajectories in windows refused by budget admission");
  ctr_trajectories_evicted_ = reg.GetCounter(
      "frt_serve_trajectories_evicted_total",
      "Exhausted objects evicted from otherwise-admitted windows");
  ctr_feeds_quarantined_ = reg.GetCounter(
      "frt_serve_feeds_quarantined_total", "Feeds quarantined by per-feed faults");
  ctr_checkpoints_written_ = reg.GetCounter(
      "frt_serve_checkpoints_written_total", "Durable ledger snapshots written");
  ctr_checkpoint_errors_ = reg.GetCounter(
      "frt_serve_checkpoint_errors_total", "Failed ledger snapshot writes");
  g_active_sessions_ = reg.GetGauge(
      "frt_serve_active_sessions", "Feed sessions currently live");
  g_queue_depth_ = reg.GetGauge(
      "frt_serve_queue_depth", "Arrival queue occupancy");
  g_backlog_windows_ = reg.GetGauge(
      "frt_serve_backlog_windows", "Closed-but-unsubmitted windows");
  g_in_flight_ = reg.GetGauge(
      "frt_serve_in_flight", "Window jobs on the pool");
  g_feeds_ = reg.GetGauge("frt_serve_feeds", "Feeds ever seen");
  g_eps_spent_max_ = reg.GetGauge(
      "frt_serve_eps_spent_max", "Largest per-feed epsilon spent so far");
  for (size_t i = 0; i < kNumServiceStages; ++i) {
    stage_cells_[i] = reg.GetHistogram(
        obs::WithLabel("frt_stage_ms", "stage", kServiceStageNames[i]),
        "Per-stage window latency (ms)");
  }
}

ServiceDispatcher::~ServiceDispatcher() {
  if (started_ && !finished_) (void)Finish();
}

Status ServiceDispatcher::Start(uint64_t seed) {
  if (started_) return Status::FailedPrecondition("service already started");
  if (config_.stream.total_budget > 0.0 && config_.stream.per_object()) {
    return Status::InvalidArgument(
        "total_budget and per_object_budget select different accountants; "
        "set at most one");
  }
  if (config_.stream.evict_exhausted && !config_.stream.per_object()) {
    return Status::InvalidArgument(
        "evict_exhausted requires a per_object_budget");
  }
  master_seed_ = seed;
  if (!config_.state_dir.empty()) {
    // Open the store and recover BEFORE the dispatcher thread exists: a
    // corrupt snapshot must fail the start (running without the recovered
    // spend would re-grant budget), and the recovered slots are handed to
    // the thread through its creation.
    Result<CheckpointStore> store = CheckpointStore::Open(config_.state_dir);
    if (!store.ok()) return store.status();
    store_.emplace(*std::move(store));
    FRT_ASSIGN_OR_RETURN(std::optional<ServiceCheckpoint> snapshot,
                         store_->Load());
    if (snapshot.has_value()) {
      checkpoint_seq_ = snapshot->sequence;
      for (FeedCheckpoint& feed : snapshot->feeds) {
        FeedSlot& slot = feeds_[feed.feed];
        feed_order_.push_back(feed.feed);
        // The recovered feed looks exactly like an idle-evicted one: its
        // first arrival opens the next session generation, whose
        // constructor floors its ledger at this carry (LedgerFloor) —
        // recovery can only under-grant, never over-grant.
        slot.generations = feed.generations;
        slot.carry.wholesale_spent = feed.wholesale_spent;
        slot.carry.per_object_floor = feed.per_object_floor;
        slot.carry.windows_closed =
            static_cast<size_t>(feed.windows_closed);
        slot.ever_evicted = true;
        // Surface the carried spend in reports even if the feed stays
        // dormant this run (a revived session reports the same values
        // from its floored ledger).
        slot.report.epsilon_spent =
            slot.carry.LedgerFloor(config_.stream.per_object());
        slot.report.epsilon_wholesale_equivalent = feed.wholesale_spent;
      }
      feeds_recovered_ = snapshot->feeds.size();
    }
  }
  pool_ = std::make_unique<WorkStealingPool>(config_.pool_threads);
  inbox_ = std::make_unique<
      DispatcherInbox<Arrival, std::unique_ptr<Completion>>>(
      config_.arrival_queue_capacity);
  started_ = true;
  started_at_ = SteadyClock::now();
  last_checkpoint_ = started_at_;
  last_metrics_ = started_at_;
  // The first snapshot is on the board before the thread exists, so
  // Introspect() is never null once Start() returns.
  PublishMetricsNow(started_at_);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  return Status::OK();
}

const FeedSession* ServiceDispatcher::session(const std::string& feed) const {
  const auto it = feeds_.find(feed);
  return it == feeds_.end() ? nullptr : it->second.session.get();
}

bool ServiceDispatcher::Offer(std::string feed, Trajectory t) {
  if (!started_) return false;
  Arrival arrival;
  arrival.feed = std::move(feed);
  arrival.trajectory = std::move(t);
  return inbox_->Offer(std::move(arrival));
}

bool ServiceDispatcher::OfferQuarantine(std::string feed,
                                        std::string reason) {
  if (!started_) return false;
  // Rides the arrival lane so it lands on the dispatcher thread in order
  // with the producer's earlier Offer() calls — the feed's already-queued
  // good arrivals are still routed before the fault takes effect.
  Arrival arrival;
  arrival.feed = std::move(feed);
  arrival.quarantine = true;
  arrival.reason = std::move(reason);
  return inbox_->Offer(std::move(arrival));
}

Status ServiceDispatcher::Finish() {
  if (!started_) return Status::FailedPrecondition("service never started");
  if (finished_) return error_;
  inbox_->Close();
  dispatcher_.join();
  // The last job was delivered; let its worker leave the task too.
  pool_->WaitIdle();
  finished_ = true;
  return error_;
}

void ServiceDispatcher::Abort(Status status) {
  if (aborted_) return;
  aborted_ = true;
  error_ = std::move(status);
  // Fail ingress fast: producers blocked in Offer() observe the close and
  // stop; arrivals already queued are drained and discarded.
  inbox_->Close();
}

void ServiceDispatcher::Route(Arrival&& arrival,
                              SteadyClock::time_point now) {
  auto [it, inserted] = feeds_.try_emplace(arrival.feed);
  FeedSlot& slot = it->second;
  if (inserted) feed_order_.push_back(arrival.feed);
  // A quarantined feed never revives: its stream already proved
  // untrustworthy, so everything it sends after the fault is dropped.
  if (slot.quarantined) return;
  if (!slot.session) {
    // Generation 0, or a revival of an idle-evicted feed: the carry
    // preloads the predecessor's budget state conservatively.
    slot.session = std::make_unique<FeedSession>(
        arrival.feed, config_.stream, master_seed_, slot.generations,
        slot.carry, &slot.report);
    ++slot.generations;
    // Generation bumps must be durable (a successor session's RNG stream
    // derives from them); an interval snapshot picks this up.
    ledger_dirty_ = true;
    ctr_sessions_created_->Inc();
    ++active_sessions_;
    peak_active_sessions_ = std::max(peak_active_sessions_, active_sessions_);
  }
  const std::string feed = arrival.feed;
  slot.session->set_evict_when_drained(false);  // the feed is live again
  slot.session->Offer(std::move(arrival.trajectory), now);
  ctr_trajectories_in_->Inc();
  while (slot.session && slot.session->WindowReady()) {
    if (!CloseSessionWindow(feed, slot, WindowClose::kCount, now)) return;
  }
  ArmDeadline(feed, slot);
}

std::optional<SteadyClock::time_point> ServiceDispatcher::EffectiveDeadline(
    const FeedSlot& slot) const {
  if (!slot.session || slot.quarantined) return std::nullopt;
  std::optional<SteadyClock::time_point> deadline =
      slot.session->CloseDeadline();
  if (config_.idle_evict_ms > 0 && !slot.session->evict_when_drained()) {
    const SteadyClock::time_point idle_at =
        slot.session->last_arrival() +
        std::chrono::milliseconds(config_.idle_evict_ms);
    deadline = deadline.has_value() ? std::min(*deadline, idle_at) : idle_at;
  }
  return deadline;
}

void ServiceDispatcher::ArmDeadline(const std::string& feed,
                                    FeedSlot& slot) {
  const std::optional<SteadyClock::time_point> deadline =
      EffectiveDeadline(slot);
  if (!deadline.has_value() || *deadline >= slot.armed_deadline) return;
  slot.armed_deadline = *deadline;
  deadlines_.push(DeadlineEntry{*deadline, feed});
}

void ServiceDispatcher::ProcessDueDeadlines(SteadyClock::time_point now) {
  while (!deadlines_.empty() && deadlines_.top().when <= now) {
    const DeadlineEntry entry = deadlines_.top();
    deadlines_.pop();
    const auto it = feeds_.find(entry.feed);
    if (it == feeds_.end()) continue;
    FeedSlot& slot = it->second;
    // Only the entry the slot considers armed is live; anything else was
    // superseded by a smaller push and that smaller entry will serve the
    // feed.
    if (entry.when != slot.armed_deadline) continue;
    slot.armed_deadline = SteadyClock::time_point::max();
    if (!slot.session || slot.quarantined) continue;
    if (config_.stream.close_after_ms > 0) {
      const auto close_deadline = slot.session->CloseDeadline();
      if (close_deadline.has_value() && now >= *close_deadline) {
        if (!CloseSessionWindow(entry.feed, slot, WindowClose::kDeadline,
                                now)) {
          continue;
        }
      }
    }
    if (config_.idle_evict_ms > 0 && !slot.session->evict_when_drained() &&
        now - slot.session->last_arrival() >=
            std::chrono::milliseconds(config_.idle_evict_ms)) {
      // Flush the trailing partial window first — eviction publishes, it
      // never drops.
      if (slot.session->uncovered() > 0) {
        if (!CloseSessionWindow(entry.feed, slot, WindowClose::kFinal,
                                now)) {
          continue;
        }
      }
      slot.session->set_evict_when_drained(true);
      RetireIfDrained(&slot);
    }
    if (slot.session && !slot.quarantined) ArmDeadline(entry.feed, slot);
  }
}

bool ServiceDispatcher::CloseSessionWindow(const std::string& feed,
                                           FeedSlot& slot,
                                           WindowClose reason,
                                           SteadyClock::time_point now) {
  if (Status st = slot.session->CloseWindow(reason, now); !st.ok()) {
    QuarantineFeed(feed, st.ToString(), /*drain=*/false);
    return false;
  }
  ++backlog_windows_;
  // An idle session's first closed window makes the feed ready; a busy
  // one rejoins ready_ when its completion lands (AbsorbCompletion).
  if (!slot.session->busy() && slot.session->backlog_size() == 1) {
    ready_.push_back(feed);
  }
  ctr_windows_closed_->Inc();
  if (reason == WindowClose::kDeadline) ctr_windows_deadline_closed_->Inc();
  return true;
}

void ServiceDispatcher::QuarantineFeed(const std::string& feed,
                                       std::string reason, bool drain) {
  auto [it, inserted] = feeds_.try_emplace(feed);
  FeedSlot& slot = it->second;
  if (inserted) feed_order_.push_back(feed);
  if (!slot.quarantined) {  // first fault wins
    slot.quarantined = true;
    slot.quarantine_reason = std::move(reason);
    ctr_feeds_quarantined_->Inc();
    slot.armed_deadline = SteadyClock::time_point::max();
    FRT_LOG(Warning) << "service: quarantined feed '" << feed
                     << "': " << slot.quarantine_reason;
  }
  if (!slot.session) return;
  if (drain) {
    // The output stops at the fault: the partial window read ahead of it
    // is dropped, the windows closed before it still run, and the session
    // retires once they drained.
    slot.session->DropUncovered();
    RetireIfDrained(&slot);
    return;
  }
  // A fault inside the feed's own pipeline: tear the session down now
  // (what it already did stays in the slot's report). The backlog is
  // dropped (its windows never execute); spend already charged stays
  // charged, same rule as every discard path. An in-flight job is
  // self-contained and its completion is ignored.
  backlog_windows_ -= slot.session->backlog_size();
  RetireSession(&slot);
}

void ServiceDispatcher::RetireSession(FeedSlot* slot) {
  slot->carry = slot->session->Carry();
  slot->session.reset();
  slot->armed_deadline = SteadyClock::time_point::max();
  ledger_dirty_ = true;
  --active_sessions_;
}

void ServiceDispatcher::EvictSession(FeedSlot* slot) {
  RetireSession(slot);
  slot->ever_evicted = true;
  ctr_sessions_evicted_->Inc();
}

void ServiceDispatcher::RetireIfDrained(FeedSlot* slot) {
  if (!slot->session || !slot->session->Drained()) return;
  if (slot->quarantined) {
    RetireSession(slot);
  } else if (slot->session->evict_when_drained()) {
    EvictSession(slot);
  }
}

void ServiceDispatcher::SubmitReady() {
  if (aborted_) return;
  // Each ready feed costs O(1), and a served feed rejoins at the back only
  // when its job completes, so no feed can lap the others.
  while (in_flight_ < config_.max_in_flight && !ready_.empty()) {
    FeedSlot& slot = feeds_.at(ready_.front());
    ready_.pop_front();
    if (!slot.session) continue;  // a quarantine tore it down meanwhile
    const size_t backlog_before = slot.session->backlog_size();
    const StreamReport before = slot.report;
    std::optional<WindowJob> job = slot.session->NextSubmittable();
    // Admission refusals and the submission both shrink the backlog; the
    // running counter absorbs whatever NextSubmittable consumed.
    backlog_windows_ -= backlog_before - slot.session->backlog_size();
    // Admission recorded its refusals and evictions in the feed's report;
    // the service totals take the same deltas.
    ctr_windows_refused_->Inc(slot.report.windows_refused -
                              before.windows_refused);
    ctr_trajectories_refused_->Inc(slot.report.trajectories_refused -
                                   before.trajectories_refused);
    ctr_trajectories_evicted_->Inc(slot.report.trajectories_evicted -
                                   before.trajectories_evicted);
    if (config_.stream.stop_when_exhausted && !stopping_ &&
        StreamHadRefusals(slot.report)) {
      // End service at the first refusal: stop ingesting, drain what
      // already closed, finish cleanly.
      stopping_ = true;
      inbox_->Close();
    }
    if (!job.has_value()) {
      // The backlog may have just drained through admission refusals (no
      // completion will fire): a retirement waiting on that drain runs now.
      RetireIfDrained(&slot);
      continue;
    }
    ++in_flight_;
    // The job is self-contained: the worker touches nothing owned by the
    // session (which could be evicted only when drained — and it is busy
    // now, so it cannot drain before this completion lands).
    auto shared_job = std::make_shared<WindowJob>(std::move(*job));
    BatchRunnerConfig batch_config = config_.stream.batch;
    // The job fans its shards and its audit out over the pool it runs on;
    // output depends only on (rng, shard count), never on the workers.
    batch_config.pool = pool_.get();
    auto* inbox = inbox_.get();
    pool_->Submit([shared_job, inbox, batch_config] {
      auto completion = std::make_unique<Completion>();
      const SteadyClock::time_point started = SteadyClock::now();
      // close -> pickup is the pool scheduling delay this feed paid.
      obs::EmitSpan("queue_wait", obs::SpanCategory::kQueue,
                    shared_job->feed, shared_job->closed_at, started);
      BatchRunner runner(batch_config);
      completion->published =
          runner.Anonymize(shared_job->window, shared_job->rng);
      const SteadyClock::time_point ended = SteadyClock::now();
      obs::EmitSpan("anonymize", obs::SpanCategory::kAnonymize,
                    shared_job->feed, started, ended);
      completion->started_at = started;
      completion->run_ms =
          std::chrono::duration<double, std::milli>(ended - started)
              .count();
      completion->batch = runner.report();
      completion->job = std::move(*shared_job);
      completion->job.window = Dataset();  // the copy has served its purpose
      inbox->Deliver(std::move(completion));
    });
  }
}

void ServiceDispatcher::AbsorbCompletion(
    std::unique_ptr<Completion> completion) {
  --in_flight_;
  FeedSlot& slot = feeds_.at(completion->job.feed);
  if (!slot.session) {
    // The feed was quarantined while this job was in flight; the session
    // is gone and the result is discarded (spend already saved in the
    // slot's carry at teardown).
    return;
  }
  FeedSession& session = *slot.session;
  if (aborted_) {
    session.Abandon();
    return;
  }
  if (!completion->published.ok()) {
    // A failed window pipeline poisons only its own feed: quarantine it
    // and keep serving the siblings.
    session.Abandon();
    QuarantineFeed(completion->job.feed,
                   completion->published.status().ToString(),
                   /*drain=*/false);
    return;
  }
  const SteadyClock::time_point now = SteadyClock::now();
  const double publish_ms =
      std::chrono::duration<double, std::milli>(now -
                                                completion->job.closed_at)
          .count();
  // The whole close -> published interval, attributed to the feed.
  obs::EmitSpan("publish", obs::SpanCategory::kPublish,
                completion->job.feed, completion->job.closed_at, now);
  Result<WindowReport> window_report = session.Complete(
      completion->job, *completion->published, completion->batch,
      publish_ms);
  if (!window_report.ok()) {
    QuarantineFeed(completion->job.feed, window_report.status().ToString(),
                   /*drain=*/false);
    return;
  }
  ledger_dirty_ = true;  // Complete() charged the ledger
  if (session.backlog_size() > 0) ready_.push_back(completion->job.feed);
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(completion->started_at -
                                                completion->job.closed_at)
          .count();
  stage_cells_[kStageCloseWait]->Record(completion->job.close_wait_ms);
  stage_cells_[kStagePublish]->Record(publish_ms);
  stage_cells_[kStageQueueWait]->Record(queue_wait_ms);
  stage_cells_[kStageAnonymize]->Record(completion->run_ms);
  slot.close_wait_hist.Record(completion->job.close_wait_ms);
  slot.publish_hist.Record(publish_ms);
  // The spend is charged; the output waits in pending_ until
  // FlushPublishes has made a checkpoint covering it durable.
  PendingPublish pending;
  pending.feed = completion->job.feed;
  pending.published = *std::move(completion->published);
  pending.report = *window_report;
  pending_.push_back(std::move(pending));
}

void ServiceDispatcher::FlushPublishes() {
  if (pending_.empty()) return;
  if (aborted_) {
    // Outputs are discarded on abort; the budget above stays spent (same
    // rule as a failed sink: never publish what the ledger might not
    // cover, never refund what a worker already consumed).
    pending_.clear();
    return;
  }
  // Write-ahead: one durable snapshot covers every pending window's spend
  // (Complete() already charged it, so Carry() includes it). Only then may
  // the outputs leave the process. Batching amortizes the fsync across
  // every completion absorbed this round.
  if (store_.has_value()) {
    if (Status st = WriteCheckpointNow(); !st.ok()) {
      Abort(st);
      pending_.clear();
      return;
    }
  }
  for (PendingPublish& pending : pending_) {
    if (aborted_) break;
    FeedSlot& slot = feeds_.at(pending.feed);
    if (!slot.session) {
      // Quarantined after the window completed but before this flush: the
      // output is discarded (its spend stays charged and checkpointed).
      continue;
    }
    const SteadyClock::time_point sink_start = SteadyClock::now();
    if (Status st = sink_(pending.feed, pending.published, pending.report);
        !st.ok()) {
      Abort(st);
      break;
    }
    const SteadyClock::time_point sink_end = SteadyClock::now();
    obs::EmitSpan("sink", obs::SpanCategory::kPublish, pending.feed,
                  sink_start, sink_end);
    const double sink_ms =
        std::chrono::duration<double, std::milli>(sink_end - sink_start)
            .count();
    stage_cells_[kStageSink]->Record(sink_ms);
    ctr_windows_published_->Inc();
    ctr_trajectories_published_->Inc(pending.report.trajectories);
    slot.session->RecordPublished(pending.report);
    RetireIfDrained(&slot);
  }
  pending_.clear();
}

Status ServiceDispatcher::WriteCheckpointNow() {
  ServiceCheckpoint image;
  image.sequence = checkpoint_seq_ + 1;
  image.total_budget = config_.stream.total_budget;
  image.per_object_budget = config_.stream.per_object_budget;
  image.feeds.reserve(feed_order_.size());
  for (const auto& name : feed_order_) {
    const FeedSlot& slot = feeds_.at(name);
    FeedCheckpoint feed;
    feed.feed = name;
    feed.generations = slot.generations;
    const FeedBudgetCarry carry =
        slot.session ? slot.session->Carry() : slot.carry;
    feed.windows_closed = carry.windows_closed;
    feed.wholesale_spent = carry.wholesale_spent;
    feed.per_object_floor = carry.per_object_floor;
    image.feeds.push_back(std::move(feed));
  }
  const SteadyClock::time_point write_start = SteadyClock::now();
  if (Status st = store_->Write(image); !st.ok()) {
    // Counted before the abort so the last snapshot shows WHY the service
    // died.
    ctr_checkpoint_errors_->Inc();
    return st;
  }
  checkpoint_seq_ = image.sequence;
  ctr_checkpoints_written_->Inc();
  ledger_dirty_ = false;
  last_checkpoint_ = SteadyClock::now();
  const double write_ms = std::chrono::duration<double, std::milli>(
                              last_checkpoint_ - write_start)
                              .count();
  stage_cells_[kStageCheckpoint]->Record(write_ms);
  return Status::OK();
}

void ServiceDispatcher::MaybeCheckpoint(SteadyClock::time_point now) {
  if (!store_.has_value() || !ledger_dirty_ || aborted_) return;
  if (now - last_checkpoint_ <
      std::chrono::milliseconds(std::max<int64_t>(
          config_.checkpoint_interval_ms, 1))) {
    return;
  }
  if (Status st = WriteCheckpointNow(); !st.ok()) Abort(st);
}

void ServiceDispatcher::MaybePublishMetrics(SteadyClock::time_point now) {
  // The board must tick even with nobody pulling from it yet: /healthz
  // staleness detection and /feedz read it. A retune publishes at once,
  // or a lengthened interval would read as stale before the next tick.
  const int64_t interval =
      metrics_interval_ms_.load(std::memory_order_relaxed);
  if (interval == last_metrics_interval_ms_ &&
      now - last_metrics_ < std::chrono::milliseconds(interval)) {
    return;
  }
  PublishMetricsNow(now);
}

void ServiceDispatcher::PublishMetricsNow(SteadyClock::time_point now) {
  auto s = std::make_shared<ServiceSnapshot>();
  s->seq = ++metrics_seq_;
  s->uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - started_at_)
                     .count();
  s->published_at = now;
  s->metrics_interval_ms =
      metrics_interval_ms_.load(std::memory_order_relaxed);
  s->finished = final_tick_;
  s->aborted = aborted_;
  s->feeds = feed_order_.size();
  s->active_sessions = active_sessions_;
  s->queue_depth = inbox_->queued();
  s->in_flight = in_flight_;
  s->backlog_windows = backlog_windows_;
  const double budget = config_.stream.budget();
  s->feeds_detail.reserve(feed_order_.size());
  for (const auto& name : feed_order_) {
    const FeedSlot& slot = feeds_.at(name);
    ServiceSnapshot::Feed feed;
    feed.feed = name;
    feed.stream = slot.report;
    feed.epsilon_remaining =
        budget > 0.0 ? std::max(0.0, budget - slot.report.epsilon_spent)
                     : std::numeric_limits<double>::infinity();
    if (slot.session) feed.backlog = slot.session->backlog_size();
    feed.sessions = slot.generations;
    feed.evicted = !slot.session && slot.ever_evicted;
    feed.quarantined = slot.quarantined;
    feed.quarantine_reason = slot.quarantine_reason;
    // Quantiles cost O(buckets) per feed: only the final report has them.
    if (final_tick_) {
      feed.close_wait = Summarize(slot.close_wait_hist);
      feed.publish = Summarize(slot.publish_hist);
    }
    s->epsilon_spent_max =
        std::max(s->epsilon_spent_max, slot.report.epsilon_spent);
    s->feeds_detail.push_back(std::move(feed));
  }
  s->windows_closed = ctr_windows_closed_->value();
  s->windows_published = ctr_windows_published_->value();
  s->windows_refused = ctr_windows_refused_->value();
  s->windows_deadline_closed = ctr_windows_deadline_closed_->value();
  s->trajectories_in = ctr_trajectories_in_->value();
  s->trajectories_published = ctr_trajectories_published_->value();
  s->trajectories_refused = ctr_trajectories_refused_->value();
  s->trajectories_evicted = ctr_trajectories_evicted_->value();
  s->sessions_created = ctr_sessions_created_->value();
  s->sessions_evicted = ctr_sessions_evicted_->value();
  s->feeds_quarantined = ctr_feeds_quarantined_->value();
  s->peak_active_sessions = peak_active_sessions_;
  s->feeds_recovered = feeds_recovered_;
  // Cell reads are O(buckets), not a sort over samples.
  for (size_t i = 0; i < kNumServiceStages; ++i) {
    s->stages[i] = Summarize(stage_cells_[i]->Snapshot());
  }
  s->checkpoint_seq = checkpoint_seq_;
  s->checkpoints_written = ctr_checkpoints_written_->value();
  s->checkpoint_errors = ctr_checkpoint_errors_->value();
  if (store_.has_value() && s->checkpoints_written > 0) {
    s->checkpoint_age_ms =
        std::chrono::duration<double, std::milli>(now - last_checkpoint_)
            .count();
  }
  // The registry gauges render this snapshot for /metrics.
  g_active_sessions_->Set(static_cast<double>(s->active_sessions));
  g_queue_depth_->Set(static_cast<double>(s->queue_depth));
  g_backlog_windows_->Set(static_cast<double>(s->backlog_windows));
  g_in_flight_->Set(static_cast<double>(s->in_flight));
  g_feeds_->Set(static_cast<double>(s->feeds));
  g_eps_spent_max_->Set(s->epsilon_spent_max);
  if (final_tick_) report_ = s;
  last_metrics_ = now;
  last_metrics_interval_ms_ = s->metrics_interval_ms;
  snapshots_.Publish(std::move(s));
}

void ServiceDispatcher::DispatcherLoop() {
  obs::SetTraceThreadName("dispatcher");
  bool input_done = false;
  std::vector<std::unique_ptr<Completion>> finished;
  for (;;) {
    // The round. Absorb what the workers finished and serve the due
    // deadlines (before the submission, so a window a deadline closes
    // reaches the pool this round), top the pool back up, then publish
    // (write-ahead checkpoint first): the checkpoint and the sinks run
    // while the pool works on the windows just submitted.
    for (std::unique_ptr<Completion>& completion : finished) {
      AbsorbCompletion(std::move(completion));
    }
    finished.clear();
    const SteadyClock::time_point now = SteadyClock::now();
    if (!input_done && !aborted_ && !stopping_) ProcessDueDeadlines(now);
    SubmitReady();
    FlushPublishes();
    if (!input_done) MaybeCheckpoint(now);
    MaybePublishMetrics(now);
    if (input_done && in_flight_ == 0) break;

    // The wait: never past the next snapshot tick (the board stays fresh
    // whoever reads it, through the drain too), nor, until input ends,
    // past the earliest armed session deadline or the interval checkpoint
    // of a dirty ledger with no publish to ride on. The deadline heap's
    // top may be stale (its deadline moved later), which only costs one
    // spurious wakeup that pops and re-arms it.
    SteadyClock::time_point wake =
        last_metrics_ + std::chrono::milliseconds(last_metrics_interval_ms_);
    if (!input_done && !aborted_) {
      if (!stopping_ && !deadlines_.empty()) {
        wake = std::min(wake, deadlines_.top().when);
      }
      if (store_.has_value() && ledger_dirty_) {
        wake = std::min(wake, last_checkpoint_ +
                                  std::chrono::milliseconds(std::max<int64_t>(
                                      config_.checkpoint_interval_ms, 1)));
      }
    }
    // A finished job always ends the wait. Arrivals are taken until input
    // ends, unless ingress is paused: with the backlog at its cap the pool
    // is the bottleneck, so arrivals pile into the bounded lane until
    // Offer blocks (end-to-end backpressure). A session with backlog is
    // busy or about to be, so a finished job is coming.
    const bool take_arrivals =
        !input_done &&
        (aborted_ || backlog_windows_ < config_.max_backlog_windows);
    Arrival arrival;
    const InboxTake took =
        inbox_->Wait(wake, take_arrivals, &finished, &arrival);
    if (took == InboxTake::kNone) continue;
    input_done = took == InboxTake::kClosed;
    // After an abort or a stop_when_exhausted trip the remaining ingress is
    // drained and discarded, and no trailing partial window closes.
    if (aborted_ || stopping_) continue;
    const SteadyClock::time_point arrived = SteadyClock::now();
    if (input_done) {
      // Ingress finished: close every session's trailing partial window. A
      // closure failure (duplicate object id in it) quarantines that feed;
      // the siblings still drain and publish.
      for (const auto& name : feed_order_) {
        FeedSlot& slot = feeds_.at(name);
        if (slot.session && !slot.quarantined &&
            slot.session->uncovered() > 0) {
          (void)CloseSessionWindow(name, slot, WindowClose::kFinal, arrived);
        }
      }
    } else if (arrival.quarantine) {
      QuarantineFeed(arrival.feed, std::move(arrival.reason), /*drain=*/true);
    } else {
      Route(std::move(arrival), arrived);
    }
  }
  // Clean-shutdown snapshot: the final generations/window counters become
  // durable even when the tail had no publish to ride on. After an abort
  // the attempt is still made (recording MORE spend is always safe), but
  // its failure cannot mask the original error.
  if (store_.has_value()) {
    if (Status st = WriteCheckpointNow(); !st.ok() && !aborted_) Abort(st);
  }
  // The final tick: everything is quiesced, and its snapshot is the run's
  // report — the object the exporter's last lines and a shutdown /feedz
  // render too.
  final_tick_ = true;
  PublishMetricsNow(SteadyClock::now());
}

Status OfferFeed(TrajectoryReader& reader, const std::string& feed,
                 ServiceDispatcher& service) {
  for (;;) {
    Result<std::optional<Trajectory>> next = reader.Next();
    if (!next.ok()) {
      service.OfferQuarantine(feed, next.status().ToString());
      return next.status();
    }
    if (!next->has_value()) return Status::OK();
    if (!service.Offer(feed, std::move(**next))) return Status::OK();
  }
}

Status OfferFeeds(MultiFeedReader& reader, ServiceDispatcher& service) {
  for (;;) {
    Result<std::optional<FeedTrajectory>> next = reader.Next();
    if (!next.ok()) {
      for (const std::string& feed : reader.feeds()) {
        service.OfferQuarantine(feed, next.status().ToString());
      }
      return next.status();
    }
    if (!next->has_value()) return Status::OK();
    FeedTrajectory& got = **next;
    if (!service.Offer(std::move(got.feed), std::move(got.trajectory))) {
      return Status::OK();
    }
  }
}

}  // namespace frt
