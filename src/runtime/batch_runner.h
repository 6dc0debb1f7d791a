// BatchRunner: sharded execution of the FrequencyRandomizer pipeline.
//
// The dataset is split into K contiguous shards (runtime/shard_plan.h); each
// shard runs the full pipeline independently on its own deterministic RNG
// stream (forked from the caller's generator before dispatch, so results do
// not depend on thread scheduling), and the per-shard outputs are merged
// back in input order.
//
// Shard-input ownership. The caller's dataset is only read. Each shard's
// task copies its own range of it and hands that copy over to
// FrequencyRandomizer::AnonymizeOwned, so the input is copied once per
// window, inside the parallel phase rather than serially before it, and
// each copy is freed as soon as the shard's first mechanism replaces it.
//
// Privacy: each moving object's trajectory lives in exactly one shard, and
// each shard's pipeline is (eps_G + eps_L)-DP on its partition, so by
// parallel composition the published dataset satisfies the same
// eps_G + eps_L guarantee as a single-shot run — the accountant records the
// maximum across shards, not the sum.
//
// Utility: signatures and the candidate set P are computed per shard, so the
// confusion set Stage 2 draws from is shard-local. Smaller shards mean
// smaller candidate sets and much cheaper kNN modification (the pipeline is
// superlinear in |D|), which is the LDPTrace/AdaTrace-style
// partition-then-perturb scaling trade.

#ifndef FRT_RUNTIME_BATCH_RUNNER_H_
#define FRT_RUNTIME_BATCH_RUNNER_H_

#include <string>
#include <vector>

#include "core/anonymizer.h"
#include "core/pipeline.h"
#include "dp/accountant.h"
#include "runtime/shard_plan.h"
#include "runtime/window_audit.h"
#include "runtime/work_stealing_pool.h"

namespace frt {

/// Configuration of the batch runtime.
struct BatchRunnerConfig {
  /// Pipeline applied to every shard.
  FrequencyRandomizerConfig pipeline;
  /// Number of dataset partitions (clamped to [1, |D|]).
  int shards = 1;
  /// Externally owned pool the shards and the audit fan out over (the
  /// service shares one pool across all windows). When null, they run
  /// one after another on the calling thread; the output is the same.
  WorkStealingPool* pool = nullptr;
  /// Post-publish displacement audit (runtime/window_audit.h). When
  /// enabled, each shard's task builds the audit part (segment tree and
  /// vertex table) over its own input range after its pipeline run, and
  /// one audit run then fans `pool` (when set) out over the parts
  /// read-only.
  WindowAuditConfig audit;
};

/// Aggregated diagnostics of one batch run.
struct BatchReport {
  /// Shards actually executed (after clamping).
  int shards_run = 0;
  /// End-to-end wall time of the batch, including split and merge.
  double wall_seconds = 0.0;
  /// Dataset-level guarantee: max over shards (parallel composition).
  double epsilon_spent = 0.0;
  /// Edit/timing totals summed across shards. `candidate_set_size` is the
  /// sum of shard-local |P|; per-shard seconds sum to CPU time, not wall.
  RandomizerReport combined;
  /// Raw per-shard reports, in shard order.
  std::vector<RandomizerReport> per_shard;
  /// Object-ids anonymized by each shard, in shard order. Every object in
  /// the input appears in exactly one shard (the parallel-composition
  /// argument), and shard i's release cost its objects
  /// per_shard[i].epsilon_spent. The streaming runtime's per-object
  /// accountant consumes this to charge exactly the ids a window released.
  std::vector<std::vector<TrajId>> shard_object_ids;
  /// Wall seconds of each shard's pipeline run, in shard order — the skew
  /// profile the pool's dynamic index claiming absorbs.
  std::vector<double> shard_wall_seconds;
  /// Skew summary over shard_wall_seconds (all 0 when no shards ran).
  double shard_wall_min = 0.0;
  double shard_wall_max = 0.0;
  double shard_wall_mean = 0.0;
  /// Displacement audit of this window (ran=false when disabled).
  WindowAuditReport audit;
};

/// \brief Runs the paper's pipeline shard-by-shard over a partitioned
/// dataset. Implements Anonymizer, so it is a drop-in for the evaluation
/// harness and the CLI.
class BatchRunner : public Anonymizer {
 public:
  explicit BatchRunner(BatchRunnerConfig config) : config_(config) {}

  /// e.g. "GL[batch x8]".
  std::string name() const override;

  /// Shards `input`, anonymizes every shard, and merges the outputs in
  /// input order. Deterministic given `rng`'s state and the shard count,
  /// independent of the pool and its size. `input` is read, never copied
  /// whole: each shard task copies its own range (see file comment).
  Result<Dataset> Anonymize(const Dataset& input, Rng& rng) override;

  /// Diagnostics of the most recent Anonymize call.
  const BatchReport& report() const { return report_; }

  /// Dataset-level privacy ledger of the most recent Anonymize call
  /// (parallel composition across shards).
  const PrivacyAccountant& accountant() const { return accountant_; }

  const BatchRunnerConfig& config() const { return config_; }

 private:
  BatchRunnerConfig config_;
  BatchReport report_;
  PrivacyAccountant accountant_;
};

}  // namespace frt

#endif  // FRT_RUNTIME_BATCH_RUNNER_H_
