#include "traj/quantizer.h"

#include "common/flat_table.h"

namespace frt {

PointFrequency ComputePointFrequency(const Trajectory& t,
                                     const Quantizer& quantizer) {
  PointFrequency pf;
  pf.reserve(t.size());
  for (const auto& tp : t.points()) {
    ++pf[quantizer.KeyOf(tp.p)];
  }
  return pf;
}

TrajectoryFrequency ComputeTrajectoryFrequency(const Dataset& d,
                                               const Quantizer& quantizer) {
  TrajectoryFrequency tf;
  // One trajectory's distinct keys: `seen` dedupes, `keys` lists them.
  FlatSlotTable seen;
  std::vector<LocationKey> keys;
  for (const auto& t : d.trajectories()) {
    seen.clear();
    keys.clear();
    seen.Reserve(t.size());
    for (const auto& tp : t.points()) {
      const LocationKey key = quantizer.KeyOf(tp.p);
      if (seen.Insert(key, 0)) keys.push_back(key);
    }
    for (const LocationKey k : keys) ++tf[k];
  }
  return tf;
}

}  // namespace frt
