// Reproduces paper Fig. 5: efficiency of the kNN search strategies.
//
//   Left panel:  total modification time (seconds, log scale in the paper)
//                vs dataset size for Linear / UG / HGt / HGb / HG+.
//   Right panel: time split between Local (intra-trajectory) and Global
//                (inter-trajectory) modification with HG+.
//
// The timed quantity is exactly the paper's: the trajectory-modification
// phase of the GL pipeline (eps_G = eps_L = 0.5), which is dominated by
// K-nearest trajectory/segment searches. Identical seeds mean every
// strategy performs the same logical edits; only search order differs.
//
// Local (HG) times follow trajectory length, not only |D|: the local stage
// builds each trajectory's grid LocalIndexLevels(segments, 10) levels deep
// (core/modifier.h; 1 level up to 32 segments, 2 up to 128, 3 up to 512,
// 4 up to 2048), so the laptop scale's ~150-point trajectories search
// 3-level grids and the full scale's ~1800-point ones 4-level grids. UG's
// single grid takes the same resolution, 2^(levels-1) per side.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace frt::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const uint64_t seed = MasterSeed();
  const std::vector<int> sizes =
      full ? std::vector<int>{1000, 2000, 4000, 6000, 8000, 10000}
           : std::vector<int>{50, 100, 200, 400, 600, 800};
  const int target_points = full ? 1813 : 150;
  const std::vector<SearchStrategy> strategies = {
      SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
      SearchStrategy::kBottomUpDown};

  std::printf("=== Fig. 5 reproduction: efficiency (eps_G = eps_L = 0.5) "
              "===\n\n");
  Stopwatch total;

  // time[strategy][size]
  std::vector<std::vector<double>> time(strategies.size());
  std::vector<double> local_time(sizes.size());
  std::vector<double> global_time(sizes.size());

  for (size_t si = 0; si < sizes.size(); ++si) {
    Workload workload = BuildWorkload(sizes[si], target_points, seed);
    for (size_t st = 0; st < strategies.size(); ++st) {
      FrequencyRandomizerConfig cfg;
      cfg.m = 10;
      cfg.epsilon_global = 0.5;
      cfg.epsilon_local = 0.5;
      cfg.strategy = strategies[st];
      FrequencyRandomizer randomizer(cfg);
      Rng rng(seed);
      auto out = randomizer.Anonymize(workload.dataset, rng);
      if (!out.ok()) {
        std::fprintf(stderr, "anonymize failed: %s\n",
                     out.status().ToString().c_str());
        return 1;
      }
      const double seconds = randomizer.report().local_seconds +
                             randomizer.report().global_seconds;
      time[st].push_back(seconds);
      if (strategies[st] == SearchStrategy::kBottomUpDown) {
        local_time[si] = randomizer.report().local_seconds;
        global_time[si] = randomizer.report().global_seconds;
      }
      std::printf("  |D|=%-5d %-6s %8.2fs  (total %.0fs)\n", sizes[si],
                  std::string(SearchStrategyName(strategies[st])).c_str(),
                  seconds, total.ElapsedSeconds());
    }
  }
  std::printf("\n");

  std::printf("Left panel: modification time (s) vs |D|\n");
  std::printf("  %-8s", "|D|");
  for (const int n : sizes) std::printf(" %8d", n);
  std::printf("\n");
  for (size_t st = 0; st < strategies.size(); ++st) {
    std::printf("  %-8s",
                std::string(SearchStrategyName(strategies[st])).c_str());
    for (const double s : time[st]) std::printf(" %8.2f", s);
    std::printf("\n");
  }
  std::printf("\nRight panel: Local vs Global modification time (s), HG+\n");
  std::printf("  %-8s", "|D|");
  for (const int n : sizes) std::printf(" %8d", n);
  std::printf("\n  %-8s", "Local");
  for (const double s : local_time) std::printf(" %8.2f", s);
  std::printf("\n  %-8s", "Global");
  for (const double s : global_time) std::printf(" %8.2f", s);
  std::printf("\n\nspeedup at |D|=%d: Linear/HG+ = %.1fx, UG/HG+ = %.1fx\n",
              sizes.back(),
              time[0].back() / std::max(1e-9, time[4].back()),
              time[1].back() / std::max(1e-9, time[4].back()));
  std::printf("total wall time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace frt::bench

int main() { return frt::bench::Run(); }
