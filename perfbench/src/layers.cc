// frt_bench layers — the traced layer driver.
//
//   frt_bench layers --mode batch --input RAW.csv --out PUBLISHED.csv
//       [--pipeline-seed 42]
//   frt_bench layers --mode stream --input RAW.csv [--window 1000]
//       [--shards 4] [--pipeline-seed 42]
//
// Feeds the workload's input through the library's public functions and
// times each call from here, so no span is needed inside src/.
//
// batch: the frt_anonymize composition (GL, global first, one shard, audit
// on) split at the paper's stage boundaries — quantize, signature, global
// TF noise, global edit, materialize, local — then the audit and the CSV
// save. The global stage is recomposed from the functions
// GlobalMechanism::Apply is made of; the fidelity gate reruns Apply from the
// same RNG state and requires byte-identical output and RNG state. The same
// composition on the first half of the input gives each layer's log-log
// scaling exponent (the paper's Fig. 5 lens).
//
// stream: the frt_stream window path — TrajectoryReader ingest, count-closed
// tumbling windows, BatchRunner fan-out over one WorkStealingPool, and the
// pooled window audit.
//
// Prints one JSON object of layer metrics; exits 1 when the gate fails.

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_tool.h"
#include "common/stopwatch.h"
#include "core/global_mechanism.h"
#include "core/local_mechanism.h"
#include "core/pipeline.h"
#include "dp/laplace.h"
#include "runtime/batch_runner.h"
#include "runtime/window_audit.h"
#include "stream/ingest.h"
#include "traj/io.h"
#include "traj/quantizer.h"

namespace frt::bench {
namespace {

/// Seconds and counters of one composed pipeline run.
struct StageReport {
  double quantize_s = 0.0;
  double signature_s = 0.0;
  double global_tf_s = 0.0;
  double global_edit_s = 0.0;
  double materialize_s = 0.0;
  double local_s = 0.0;
  double audit_s = 0.0;
  /// Wall time of the fidelity gate's reference run (not a layer).
  double gate_s = 0.0;
  size_t candidates = 0;
  ModifierStats global_edit;
  LocalReport local;
  WindowAuditReport audit;
  /// Fidelity gate: the recomposed global stage equals GlobalMechanism::Apply.
  bool global_identical = false;
};

BBox PaddedBounds(const Dataset& d) {
  // The padding FrequencyRandomizer::Anonymize and GlobalMechanism::Apply
  // both apply to the dataset extent.
  BBox region = d.Bounds();
  const double pad =
      std::max(1.0, 0.01 * std::max(region.Width(), region.Height()));
  region.min_x -= pad;
  region.min_y -= pad;
  region.max_x += pad;
  region.max_y += pad;
  return region;
}

std::string Serialize(const Dataset& d) {
  std::ostringstream out;
  (void)WriteDatasetCsv(d, out);
  return out.str();
}

/// FrequencyRandomizer::Anonymize (global-first GL) followed by the audit
/// frt_anonymize runs, timed stage by stage. With `check_global` the
/// global stage is also run through GlobalMechanism::Apply from a copy of
/// the same RNG state, outside the timed regions.
Result<Dataset> ComposedAnonymize(const Dataset& input,
                                  const FrequencyRandomizerConfig& config,
                                  Rng& rng, bool check_global,
                                  StageReport* r) {
  Stopwatch watch;
  Quantizer quantizer(PaddedBounds(input), config.snap_levels);
  quantizer.RegisterDataset(input);
  r->quantize_s = watch.ElapsedSeconds();

  watch.Restart();
  SignatureExtractor extractor(&quantizer, config.m);
  FRT_ASSIGN_OR_RETURN(const SignatureSet signatures,
                       extractor.Extract(input));
  r->signature_s = watch.ElapsedSeconds();
  r->candidates = signatures.candidate_set.size();

  PrivacyAccountant accountant(config.epsilon_global + config.epsilon_local);
  const Dataset current = input.Clone();
  Rng global_rng_before = rng;

  // Global TF noise (Alg. 1 lines 1-6).
  watch.Restart();
  const LaplaceMechanism mechanism(/*sensitivity=*/1.0,
                                   config.epsilon_global);
  FRT_RETURN_IF_ERROR(mechanism.Validate());
  FRT_RETURN_IF_ERROR(accountant.Spend(config.epsilon_global, "global-TF"));
  const TrajectoryFrequency tf =
      ComputeTrajectoryFrequency(current, quantizer);
  const int64_t n = static_cast<int64_t>(current.size());
  FrequencyDelta delta;
  for (const LocationKey key : signatures.candidate_set) {
    auto it = tf.find(key);
    const int64_t l = (it != tf.end()) ? it->second : 0;
    const int64_t l_star =
        RoundToIntRange(mechanism.Perturb(rng, static_cast<double>(l)), 0, n);
    if (l_star != l) delta[key] = l_star - l;
  }
  r->global_tf_s = watch.ElapsedSeconds();

  // Global edit (Alg. 1 line 7): inter-trajectory kNN modification.
  watch.Restart();
  GridSpec grid(PaddedBounds(current), config.index_levels);
  std::vector<EditableTrajectory> editables;
  editables.reserve(current.size());
  for (const Trajectory& t : current.trajectories()) editables.emplace_back(t);
  InterTrajectoryModifier modifier(&quantizer, config.strategy, grid);
  FRT_RETURN_IF_ERROR(modifier.Apply(&editables, delta, &r->global_edit));
  r->global_edit_s = watch.ElapsedSeconds();

  watch.Restart();
  Dataset globally_edited;
  for (const EditableTrajectory& et : editables) {
    FRT_RETURN_IF_ERROR(globally_edited.Add(et.Materialize()));
  }
  r->materialize_s = watch.ElapsedSeconds();

  if (check_global) {
    watch.Restart();
    GlobalMechanismConfig global_config;
    global_config.epsilon = config.epsilon_global;
    global_config.strategy = config.strategy;
    global_config.grid_levels = config.index_levels;
    FRT_ASSIGN_OR_RETURN(
        const Dataset reference,
        GlobalMechanism(&quantizer, global_config)
            .Apply(current, signatures, global_rng_before, nullptr, nullptr));
    Rng after_composed = rng;
    r->global_identical =
        Serialize(reference) == Serialize(globally_edited) &&
        global_rng_before.Next() == after_composed.Next();
    r->gate_s = watch.ElapsedSeconds();
  }

  watch.Restart();
  LocalMechanismConfig local_config;
  local_config.epsilon = config.epsilon_local;
  local_config.strategy = config.strategy;
  local_config.grid_levels = config.index_levels;
  FRT_ASSIGN_OR_RETURN(
      Dataset published,
      LocalMechanism(&quantizer, local_config)
          .Apply(globally_edited, signatures, rng, &accountant, &r->local));
  r->local_s = watch.ElapsedSeconds();

  watch.Restart();
  WindowAuditConfig audit_config;
  audit_config.enabled = true;
  audit_config.strategy = config.strategy;
  audit_config.index_levels = config.index_levels;
  r->audit = RunWindowAudit(input, published, audit_config, nullptr);
  r->audit_s = watch.ElapsedSeconds();
  return published;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Log-log slope of a layer's seconds between two input sizes.
double Exponent(double t_small, double t_large, double n_small,
                double n_large) {
  if (t_small <= 0.0 || t_large <= 0.0 || n_small >= n_large) return 0.0;
  return std::log(t_large / t_small) / std::log(n_large / n_small);
}

void AddStageMetrics(const StageReport& r, JsonObject* out) {
  out->Num("core.quantize_s", r.quantize_s);
  out->Num("core.signature_s", r.signature_s);
  out->Int("core.candidates", static_cast<int64_t>(r.candidates));
  out->Num("core.global_tf_s", r.global_tf_s);
  out->Num("core.global_edit_s", r.global_edit_s);
  out->Int("core.global_edit.knn",
           static_cast<int64_t>(r.global_edit.knn_searches));
  out->Int("core.global_edit.evals",
           static_cast<int64_t>(r.global_edit.distance_evaluations));
  out->Num("core.global_edit.evals_per_knn",
           Ratio(static_cast<double>(r.global_edit.distance_evaluations),
                 static_cast<double>(r.global_edit.knn_searches)));
  out->Int("core.global_edit.edits",
           static_cast<int64_t>(r.global_edit.insertions +
                                r.global_edit.deletions));
  out->Num("core.materialize_s", r.materialize_s);
  out->Num("core.local_s", r.local_s);
  out->Num("core.local.evals_per_knn",
           Ratio(static_cast<double>(r.local.edits.distance_evaluations),
                 static_cast<double>(r.local.edits.knn_searches)));
  out->Num("runtime.audit_s", r.audit_s);
  out->Num("runtime.audit.build_s", r.audit.build_seconds);
  out->Num("runtime.audit.evals_per_point",
           Ratio(static_cast<double>(r.audit.distance_evaluations),
                 static_cast<double>(r.audit.points_audited)));
}

int RunBatch(const Flags& flags, const FrequencyRandomizerConfig& config,
             uint64_t seed) {
  const std::string input_path = flags.Str("input");
  const std::string out_path = flags.Str("out");
  if (input_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "frt_bench layers: --input and --out required\n");
    return 2;
  }
  Stopwatch e2e;
  Stopwatch watch;
  auto input = LoadDatasetCsv(input_path);
  if (!input.ok()) {
    std::fprintf(stderr, "frt_bench layers: %s\n",
                 input.status().ToString().c_str());
    return 1;
  }
  const double load_s = watch.ElapsedSeconds();

  StageReport full;
  Rng rng(seed);
  auto published =
      ComposedAnonymize(*input, config, rng, /*check_global=*/true, &full);
  if (!published.ok()) {
    std::fprintf(stderr, "frt_bench layers: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  watch.Restart();
  if (auto st = SaveDatasetCsv(*published, out_path); !st.ok()) {
    std::fprintf(stderr, "frt_bench layers: %s\n", st.ToString().c_str());
    return 1;
  }
  const double save_s = watch.ElapsedSeconds();
  // The CLI has no gate, so its reference run is not part of the traced
  // run's end-to-end time.
  const double e2e_s = e2e.ElapsedSeconds() - full.gate_s;

  // Same composition on the first half of the trajectories: the small end
  // of each layer's scaling exponent.
  Dataset half;
  for (size_t i = 0; i < input->size() / 2; ++i) (void)half.Add((*input)[i]);
  StageReport small;
  Rng half_rng(seed);
  if (auto st = ComposedAnonymize(half, config, half_rng, false, &small);
      !st.ok()) {
    std::fprintf(stderr, "frt_bench layers: %s\n",
                 st.status().ToString().c_str());
    return 1;
  }
  const double n_full = static_cast<double>(input->size());
  const double n_half = static_cast<double>(half.size());

  JsonObject out;
  out.Bool("gate_global_identical", full.global_identical);
  out.Num("e2e_s", e2e_s);
  out.Num("traj.load_s", load_s);
  out.Num("traj.save_s", save_s);
  AddStageMetrics(full, &out);
  out.Num("core.signature.exp",
          Exponent(small.signature_s, full.signature_s, n_half, n_full));
  out.Num("core.global_edit.exp",
          Exponent(small.global_edit_s, full.global_edit_s, n_half, n_full));
  out.Num("core.local.exp",
          Exponent(small.local_s, full.local_s, n_half, n_full));
  out.Num("runtime.audit.exp",
          Exponent(small.audit_s, full.audit_s, n_half, n_full));
  std::printf("%s\n", out.Render().c_str());
  return full.global_identical ? 0 : 1;
}

int RunStream(const Flags& flags, const FrequencyRandomizerConfig& config,
              uint64_t seed) {
  bool ok = true;
  const std::string input_path = flags.Str("input");
  const int64_t window = flags.Int("window", 1000, &ok);
  const int64_t shards = flags.Int("shards", 4, &ok);
  std::ifstream in(input_path);
  if (!ok || window < 1 || shards < 1 || !in.is_open()) {
    std::fprintf(stderr, "frt_bench layers: bad --input/--window/--shards\n");
    return 2;
  }
  Stopwatch e2e;
  WorkStealingPool pool(0);
  BatchRunnerConfig batch_config;
  batch_config.pipeline = config;
  batch_config.shards = static_cast<int>(shards);
  batch_config.pool = &pool;
  WindowAuditConfig audit_config;
  audit_config.enabled = true;
  audit_config.strategy = config.strategy;
  audit_config.index_levels = config.index_levels;

  TrajectoryReader reader(in);
  Rng rng(seed);
  double ingest_s = 0.0;
  double batch_s = 0.0;
  double skew_sum = 0.0;
  StageReport totals;
  size_t windows = 0;
  Status status = Status::OK();
  Dataset pending;
  // One window: BatchRunner::Anonymize with the audit split out, so the
  // fan-out and the pooled audit are timed apart (BatchRunner runs the
  // same RunWindowAudit call on the same pool when its audit is enabled).
  auto process = [&]() -> Status {
    Rng window_rng = rng.Fork();  // StreamRunner forks once per window
    BatchRunner runner(batch_config);
    Stopwatch watch;
    FRT_ASSIGN_OR_RETURN(const Dataset published,
                         runner.Anonymize(pending, window_rng));
    batch_s += watch.ElapsedSeconds();
    const BatchReport& report = runner.report();
    skew_sum += Ratio(report.shard_wall_max, report.shard_wall_mean);
    totals.local_s += report.combined.local_seconds;
    totals.candidates += report.combined.candidate_set_size;
    totals.global_edit.MergeFrom(report.combined.global.edits);
    totals.local.edits.MergeFrom(report.combined.local.edits);
    watch.Restart();
    const WindowAuditReport audit =
        RunWindowAudit(pending, published, audit_config, &pool);
    totals.audit_s += watch.ElapsedSeconds();
    totals.audit.build_seconds += audit.build_seconds;
    totals.audit.distance_evaluations += audit.distance_evaluations;
    totals.audit.points_audited += audit.points_audited;
    ++windows;
    pending = Dataset();
    return Status::OK();
  };
  for (;;) {
    Stopwatch watch;
    auto next = reader.Next();
    ingest_s += watch.ElapsedSeconds();
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next->has_value()) break;
    if (!(status = pending.Add(std::move(**next))).ok()) break;
    if (pending.size() == static_cast<size_t>(window)) {
      if (!(status = process()).ok()) break;
    }
  }
  if (status.ok() && !pending.empty()) status = process();
  if (!status.ok()) {
    std::fprintf(stderr, "frt_bench layers: %s\n", status.ToString().c_str());
    return 1;
  }

  JsonObject out;
  out.Num("e2e_s", e2e.ElapsedSeconds());
  out.Num("stream.ingest_s", ingest_s);
  out.Num("runtime.batch_s", batch_s);
  out.Num("runtime.shard_skew", Ratio(skew_sum, static_cast<double>(windows)));
  out.Int("windows", static_cast<int64_t>(windows));
  out.Int("core.candidates", static_cast<int64_t>(totals.candidates));
  out.Int("core.global_edit.knn",
          static_cast<int64_t>(totals.global_edit.knn_searches));
  out.Int("core.global_edit.evals",
          static_cast<int64_t>(totals.global_edit.distance_evaluations));
  out.Num("core.global_edit.evals_per_knn",
          Ratio(static_cast<double>(totals.global_edit.distance_evaluations),
                static_cast<double>(totals.global_edit.knn_searches)));
  out.Int("core.global_edit.edits",
          static_cast<int64_t>(totals.global_edit.insertions +
                               totals.global_edit.deletions));
  out.Num("core.local_s", totals.local_s);
  out.Num("core.local.evals_per_knn",
          Ratio(static_cast<double>(totals.local.edits.distance_evaluations),
                static_cast<double>(totals.local.edits.knn_searches)));
  out.Num("runtime.audit_s", totals.audit_s);
  out.Num("runtime.audit.build_s", totals.audit.build_seconds);
  out.Num("runtime.audit.evals_per_point",
          Ratio(static_cast<double>(totals.audit.distance_evaluations),
                static_cast<double>(totals.audit.points_audited)));
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace

int RunLayers(const Flags& flags) {
  bool ok = true;
  const std::string mode = flags.Str("mode");
  const int64_t seed = flags.Int("pipeline-seed", 42, &ok);
  if (!ok) return 2;
  // The CLIs' default pipeline flags (tools/cli_common.h PipelineArgs).
  const FrequencyRandomizerConfig config;
  if (mode == "batch") {
    return RunBatch(flags, config, static_cast<uint64_t>(seed));
  }
  if (mode == "stream") {
    return RunStream(flags, config, static_cast<uint64_t>(seed));
  }
  std::fprintf(stderr, "usage: frt_bench layers --mode batch|stream ...\n");
  return 2;
}

}  // namespace frt::bench
