#include "attack/recovery_attack.h"

#include <vector>

#include "runtime/work_stealing_pool.h"

namespace frt {

RecoveryScores EvaluateRecovery(const Workload& workload,
                                const Dataset& published,
                                const MapMatchConfig& config) {
  RecoveryScores agg;
  const HmmMapMatcher matcher(&workload.network, config);

  struct PerTraj {
    RouteScores route;
    double accuracy = 0.0;
    bool valid = false;
  };
  std::vector<PerTraj> results(published.size());

  WorkStealingPool pool;
  pool.Run(published.size(), [&](size_t i) {
    const Trajectory& traj = published[i];
    const TrajId id = traj.id();
    if (id < 0 ||
        id >= static_cast<TrajId>(workload.truth.route_edges.size())) {
      return;
    }
    const auto& truth_route = workload.truth.route_edges[id];
    if (truth_route.empty()) return;
    const MatchResult match = matcher.Match(traj);
    PerTraj r;
    r.route = CompareRoutes(workload.network, truth_route,
                            match.route_edges);
    r.accuracy = AlignedPointAccuracy(workload.truth.point_edges[id],
                                      match.matched_edges);
    r.valid = true;
    results[i] = r;
  });

  for (const PerTraj& r : results) {
    if (!r.valid) continue;
    agg.precision += r.route.precision;
    agg.recall += r.route.recall;
    agg.f_score += r.route.f_score;
    agg.rmf += r.route.rmf;
    agg.accuracy += r.accuracy;
    ++agg.evaluated;
  }
  if (agg.evaluated > 0) {
    const double n = static_cast<double>(agg.evaluated);
    agg.precision /= n;
    agg.recall /= n;
    agg.f_score /= n;
    agg.rmf /= n;
    agg.accuracy /= n;
  }
  return agg;
}

}  // namespace frt
