// Index explorer: builds the paper's hierarchical grid over a trajectory
// dataset and contrasts the five kNN search strategies on the same queries
// — the cell-pruning behaviour behind Fig. 5.
//
//   build/examples/index_explorer

#include <cstdio>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "index/hierarchical_grid_index.h"
#include "index/search_context.h"
#include "index/segment_index.h"
#include "synth/workload.h"

int main() {
  frt::WorkloadConfig workload_config;
  workload_config.num_taxis = 60;
  workload_config.target_points = 200;
  auto workload = frt::GenerateTaxiWorkload(workload_config,
                                            frt::RoadGenConfig{}, 11);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  frt::BBox region = workload->dataset.Bounds();
  frt::GridSpec grid(region, 10);  // 512x512 finest, as in the paper

  const frt::SearchStrategy strategies[] = {
      frt::SearchStrategy::kLinear, frt::SearchStrategy::kUniformGrid,
      frt::SearchStrategy::kTopDown, frt::SearchStrategy::kBottomUp,
      frt::SearchStrategy::kBottomUpDown};

  std::printf("%-8s %10s %12s %14s %12s\n", "strategy", "build(ms)",
              "1k queries", "dist-evals", "cells");
  for (const auto strategy : strategies) {
    frt::Stopwatch build_watch;
    auto index = frt::MakeSegmentIndex(strategy, grid);
    frt::SegmentHandle handle = 0;
    for (const auto& traj : workload->dataset.trajectories()) {
      handle += frt::IndexTrajectory(traj, index.get(), handle);
    }
    const double build_ms = build_watch.ElapsedMillis();

    frt::Rng rng(123);
    frt::SearchOptions options;
    options.k = 8;
    frt::SearchContext ctx;
    frt::Stopwatch query_watch;
    for (int q = 0; q < 1000; ++q) {
      const frt::Point p{rng.Uniform(region.min_x, region.max_x),
                         rng.Uniform(region.min_y, region.max_y)};
      const auto result = index->KNearest(p, options, &ctx);
      if (result.size() != options.k) {
        std::fprintf(stderr, "unexpected result size\n");
        return 1;
      }
    }
    const double query_ms = query_watch.ElapsedMillis();

    size_t cells = 0;
    if (auto* hg =
            dynamic_cast<frt::HierarchicalGridIndex*>(index.get())) {
      cells = hg->NumCells();
    }
    std::printf("%-8s %10.1f %10.1fms %14llu %12zu\n",
                std::string(frt::SearchStrategyName(strategy)).c_str(),
                build_ms, query_ms,
                static_cast<unsigned long long>(
                    index->distance_evaluations()),
                cells);
  }

  std::printf("\n%zu segments indexed; HG+ touches far fewer segments per "
              "query than a linear scan (Theorem 4 pruning).\n",
              static_cast<size_t>(workload->dataset.TotalPoints() -
                                  workload->dataset.size()));
  return 0;
}
