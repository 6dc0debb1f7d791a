// bench_batch — BatchRunner scaling study: wall-clock of the GL pipeline at
// increasing shard counts over one synthetic workload, plus epsilon
// accounting checks between the sharded and single-shard runs.
//
// The pipeline is superlinear in |D| (the candidate set and the kNN
// modification both grow with the dataset), so sharding wins wall-clock even
// on a single core; with threads it also parallelizes across shards.
//
//   FRT_SCALE=full  -> |D| = 50,000 trajectories (production-scale; the
//                      1-shard baseline alone can take hours on a laptop).
//   (default)       -> |D| = 2,000 (laptop scale; shapes are preserved).
//   FRT_SEED=<n>    -> master seed (default 42).
//   FRT_SHARDS=a,b  -> override the shard-count sweep (default 1,2,4,8,16).
//   FRT_THREADS=<n> -> worker threads (default: hardware concurrency).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "runtime/batch_runner.h"

namespace {

std::vector<int> ShardSweep() {
  const char* env = std::getenv("FRT_SHARDS");
  if (env == nullptr) return {1, 2, 4, 8, 16};
  std::vector<int> sweep;
  std::string token;
  for (const char* c = env;; ++c) {
    if (*c == ',' || *c == '\0') {
      if (!token.empty()) sweep.push_back(std::atoi(token.c_str()));
      token.clear();
      if (*c == '\0') break;
    } else {
      token.push_back(*c);
    }
  }
  return sweep.empty() ? std::vector<int>{1, 2, 4, 8, 16} : sweep;
}

unsigned Threads() {
  const char* env = std::getenv("FRT_THREADS");
  return env != nullptr
             ? static_cast<unsigned>(std::strtoul(env, nullptr, 10))
             : 0;
}

}  // namespace

int main() {
  const bool full = frt::bench::FullScale();
  const int num_taxis = full ? 50000 : 2000;
  const int target_points = 60;
  const uint64_t seed = frt::bench::MasterSeed();
  const unsigned threads = Threads();

  std::printf("bench_batch: |D|=%d, %d pts/traj target, seed=%llu, "
              "threads=%u (hw=%u)\n",
              num_taxis, target_points,
              static_cast<unsigned long long>(seed), threads,
              std::thread::hardware_concurrency());

  frt::Stopwatch gen_watch;
  frt::Workload workload =
      frt::bench::BuildWorkload(num_taxis, target_points, seed);
  std::printf("workload: %zu trajectories, %zu points (%.1fs)\n",
              workload.dataset.size(), workload.dataset.TotalPoints(),
              gen_watch.ElapsedSeconds());

  frt::FrequencyRandomizerConfig pipeline;
  pipeline.m = 10;
  pipeline.epsilon_global = 0.5;
  pipeline.epsilon_local = 0.5;

  std::printf("\n%8s %12s %10s %8s %12s %12s %12s\n", "shards", "wall_s",
              "speedup", "eps", "sum|P|", "ins", "del");

  double baseline_seconds = 0.0;  // first sweep entry; rows compare to it
  frt::WorkStealingPool pool(threads);
  for (const int shards : ShardSweep()) {
    frt::BatchRunnerConfig config;
    config.pipeline = pipeline;
    config.shards = shards;
    config.pool = &pool;
    frt::BatchRunner runner(config);
    frt::Rng rng(seed);
    auto published = runner.Anonymize(workload.dataset, rng);
    if (!published.ok()) {
      std::fprintf(stderr, "shards=%d failed: %s\n", shards,
                   published.status().ToString().c_str());
      return 1;
    }
    const frt::BatchReport& report = runner.report();
    if (baseline_seconds == 0.0) baseline_seconds = report.wall_seconds;
    const double speedup = report.wall_seconds > 0.0
                               ? baseline_seconds / report.wall_seconds
                               : 0.0;
    std::printf("%8d %12.2f %9.2fx %8.2f %12zu %12zu %12zu\n",
                report.shards_run, report.wall_seconds, speedup,
                report.epsilon_spent, report.combined.candidate_set_size,
                report.combined.local.edits.insertions +
                    report.combined.global.edits.insertions,
                report.combined.local.edits.deletions +
                    report.combined.global.edits.deletions);
  }
  std::printf("\nepsilon is identical at every shard count: each object "
              "lives in one shard, so parallel composition yields the "
              "single-shot guarantee.\n");
  return 0;
}
