#include "runtime/batch_runner.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"

namespace frt {

std::string BatchRunner::name() const {
  FrequencyRandomizer pipeline(config_.pipeline);
  return pipeline.name() + "[batch x" +
         std::to_string(std::max(1, config_.shards)) + "]";
}

Result<Dataset> BatchRunner::Anonymize(const Dataset& input, Rng& rng) {
  report_ = BatchReport{};
  if (input.empty()) return Status::InvalidArgument("empty dataset");

  Stopwatch wall;
  const std::vector<ShardRange> plan = PlanShards(input.size(), config_.shards);
  const size_t k = plan.size();

  // Fork one stream per shard up front, on the caller's thread: shard i
  // always receives the i-th fork, so output is a pure function of the
  // incoming RNG state and the shard count, never of scheduling.
  std::vector<Rng> streams;
  streams.reserve(k);
  for (size_t i = 0; i < k; ++i) streams.push_back(rng.Fork());

  report_.shard_object_ids.resize(k);
  for (size_t i = 0; i < k; ++i) {
    report_.shard_object_ids[i].reserve(plan[i].size());
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      report_.shard_object_ids[i].push_back(input[j].id());
    }
  }

  // Per-shard result slots; written by distinct indices only, so the output
  // is identical at any worker count.
  std::vector<Result<Dataset>> shard_outputs(
      k, Result<Dataset>(Status::Internal("shard not executed")));
  std::vector<RandomizerReport> shard_reports(k);
  std::vector<double> shard_walls(k, 0.0);
  std::vector<WindowAuditPart> audit_parts(config_.audit.enabled ? k : 0);
  auto shard_task = [&](size_t i) {
    Stopwatch shard_watch;
    // The shard's input is the one copy of its range, made here in the
    // parallel phase and handed to the pipeline, which frees it once the
    // first mechanism's output replaces it.
    Dataset shard_input;
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      if (Status st = shard_input.Add(input[j]); !st.ok()) {
        shard_outputs[i] = st;
        return;
      }
    }
    FrequencyRandomizer pipeline(config_.pipeline);
    shard_outputs[i] = pipeline.AnonymizeOwned(std::move(shard_input),
                                               streams[i]);
    shard_reports[i] = pipeline.report();
    shard_walls[i] = shard_watch.ElapsedSeconds();
    // The shard's audit part, built here in the parallel phase and after
    // the copy is gone, so the two never coexist.
    if (config_.audit.enabled && shard_outputs[i].ok()) {
      audit_parts[i] = WindowAuditPart(input, plan[i]);
    }
  };
  if (config_.pool != nullptr) {
    config_.pool->Run(k, shard_task);
  } else {
    for (size_t i = 0; i < k; ++i) shard_task(i);
  }

  Dataset merged;
  report_.shards_run = static_cast<int>(k);
  report_.per_shard = std::move(shard_reports);
  report_.shard_wall_seconds = std::move(shard_walls);
  report_.shard_wall_min = report_.shard_wall_seconds[0];
  for (const double s : report_.shard_wall_seconds) {
    report_.shard_wall_min = std::min(report_.shard_wall_min, s);
    report_.shard_wall_max = std::max(report_.shard_wall_max, s);
    report_.shard_wall_mean += s;
  }
  report_.shard_wall_mean /= static_cast<double>(k);
  for (size_t i = 0; i < k; ++i) {
    if (!shard_outputs[i].ok()) return shard_outputs[i].status();
    for (auto& t : shard_outputs[i]->mutable_trajectories()) {
      FRT_RETURN_IF_ERROR(merged.Add(std::move(t)));
    }
    const RandomizerReport& r = report_.per_shard[i];
    report_.combined.local_seconds += r.local_seconds;
    report_.combined.global_seconds += r.global_seconds;
    report_.combined.local.edits.MergeFrom(r.local.edits);
    report_.combined.local.total_abs_frequency_change +=
        r.local.total_abs_frequency_change;
    report_.combined.local.trajectories_processed +=
        r.local.trajectories_processed;
    report_.combined.global.edits.MergeFrom(r.global.edits);
    report_.combined.global.total_abs_tf_change += r.global.total_abs_tf_change;
    report_.combined.global.points_perturbed += r.global.points_perturbed;
    report_.combined.candidate_set_size += r.candidate_set_size;
    // Every object appears in exactly one shard, so the dataset-level
    // spend is the per-shard maximum (parallel composition), not the sum.
    report_.epsilon_spent = std::max(report_.epsilon_spent, r.epsilon_spent);
  }
  report_.combined.epsilon_spent = report_.epsilon_spent;
  if (config_.audit.enabled) {
    // The shards' parts together index the whole input, so this reports
    // what the one-part RunWindowAudit(input, merged) would. It reuses the
    // shared pool when one is attached, else runs on this thread.
    report_.audit =
        RunWindowAudit(audit_parts, merged, config_.audit, config_.pool);
  }
  report_.wall_seconds = wall.ElapsedSeconds();
  return merged;
}

}  // namespace frt
