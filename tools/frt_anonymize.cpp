// frt_anonymize — command-line trajectory anonymizer.
//
// Reads a CSV trajectory dataset (traj_id,x,y,t per line; see traj/io.h),
// applies the paper's frequency-based randomization, and writes the
// published dataset. The variant is selected by the budget flags: set one
// of them to 0 for PureG / PureL, both positive for GL. `--input -` reads
// the dataset from stdin via the incremental reader, so the tool can sit
// at the end of a shell pipeline.
//
// With --shards K > 1 the dataset is partitioned and each shard is
// anonymized independently (BatchRunner) on a pool of --threads workers
// (0 = hardware concurrency), which also runs the audit; parallel
// composition keeps the privacy guarantee identical to the single-shot
// run. A single-shot run uses no pool, so --threads then has no effect.

#include <cstdio>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "frt.h"
#include "traj/io.h"

int main(int argc, char** argv) {
  // Unsynced iostreams: with C-stdio sync on, cin's streambuf never
  // buffers, which degrades the incremental reader to byte-sized refills.
  std::ios::sync_with_stdio(false);
  frt::cli::AnonymizeArgs args;
  const frt::cli::FlagTable flags = frt::cli::AnonymizeFlags(&args);
  frt::FrequencyRandomizerConfig config;
  if (!frt::cli::ParseFlags(argc, argv, flags) ||
      !frt::cli::Require(!args.input.empty() && !args.output.empty(),
                         "--input and --output are required") ||
      !frt::cli::MakePipelineConfig(args.pipeline, &config)) {
    frt::cli::PrintUsage(argv[0], flags);
    return 2;
  }

  auto dataset = args.input == "-"
                     ? frt::ReadDatasetFromStream(std::cin)
                     : frt::LoadDatasetCsv(args.input);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu trajectories, %zu points\n",
               dataset->size(), dataset->TotalPoints());

  frt::Rng rng(args.pipeline.seed);
  frt::Stopwatch watch;
  frt::Result<frt::Dataset> published =
      frt::Status::Internal("not executed");
  std::string method_name;
  frt::RandomizerReport report;
  frt::WindowAuditConfig audit_config;
  audit_config.enabled = true;
  if (args.pipeline.shards > 1) {
    frt::WorkStealingPool pool(args.pipeline.threads);
    frt::BatchRunnerConfig batch_config;
    batch_config.pipeline = config;
    batch_config.shards = args.pipeline.shards;
    batch_config.pool = &pool;
    batch_config.audit = audit_config;
    frt::BatchRunner runner(batch_config);
    method_name = runner.name();
    published = runner.Anonymize(*dataset, rng);
    if (published.ok()) {
      report = runner.report().combined;
      const frt::BatchReport& batch = runner.report();
      std::fprintf(stderr, "batch: %d shards, eps=%.2f via parallel "
                   "composition\n",
                   batch.shards_run, batch.epsilon_spent);
      std::fprintf(stderr,
                   "shard skew: wall min/mean/max %.3f/%.3f/%.3f s "
                   "(max/mean %.2fx)\n",
                   batch.shard_wall_min, batch.shard_wall_mean,
                   batch.shard_wall_max,
                   batch.shard_wall_mean > 0.0
                       ? batch.shard_wall_max / batch.shard_wall_mean
                       : 0.0);
      frt::cli::PrintAuditReport(batch.audit);
    }
  } else {
    if (args.pipeline.threads != 0) {
      std::fprintf(stderr,
                   "note: --threads has no effect without --shards > 1\n");
    }
    frt::FrequencyRandomizer randomizer(config);
    method_name = randomizer.name();
    published = randomizer.Anonymize(*dataset, rng);
    if (published.ok()) {
      report = randomizer.report();
      frt::cli::PrintAuditReport(frt::RunWindowAudit(
          *dataset, *published, audit_config, /*pool=*/nullptr));
    }
  }
  if (!published.ok()) {
    std::fprintf(stderr, "anonymize: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s done in %.1fs: eps=%.2f, |P|=%zu, local edits %zu+/%zu-, "
               "global edits %zu+/%zu-, points %zu -> %zu\n",
               method_name.c_str(), watch.ElapsedSeconds(),
               report.epsilon_spent, report.candidate_set_size,
               report.local.edits.insertions, report.local.edits.deletions,
               report.global.edits.insertions,
               report.global.edits.deletions, dataset->TotalPoints(),
               published->TotalPoints());

  if (auto st = frt::SaveDatasetCsv(*published, args.output); !st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", args.output.c_str());
  return 0;
}
