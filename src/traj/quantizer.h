// Location quantization: mapping raw coordinates to discrete location keys.
//
// The paper counts point frequencies (PF) and trajectory frequencies (TF) of
// "points", treating a point as a discrete location. Raw GPS doubles almost
// never repeat bit-for-bit, so FRT snaps coordinates onto a fine uniform
// grid and uses the cell as the location identity. All frequency counting,
// signature extraction and edit bookkeeping operate on LocationKey; geometry
// (utility loss, index search) keeps raw coordinates.

#ifndef FRT_TRAJ_QUANTIZER_H_
#define FRT_TRAJ_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "geo/grid.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace frt {

/// Discrete location identity (packed snap-grid cell key).
using LocationKey = uint64_t;

/// \brief Maps coordinates to LocationKeys at a fixed snap resolution, and
/// maintains a representative coordinate per key for materializing edits.
class Quantizer {
 public:
  Quantizer() = default;

  /// \param region      spatial extent of the data.
  /// \param snap_levels dyadic levels; snap resolution is
  ///                    2^(snap_levels-1) per side (default 1024x1024).
  explicit Quantizer(const BBox& region, int snap_levels = 11)
      : grid_(region, snap_levels) {}

  const GridSpec& grid() const { return grid_; }
  int snap_level() const { return grid_.finest_level(); }

  /// Location key for a raw coordinate.
  LocationKey KeyOf(const Point& p) const {
    return grid_.CellAt(p, snap_level()).Key();
  }

  /// \brief Representative coordinate for a key.
  ///
  /// If RegisterDataset() has seen points for this key, returns the centroid
  /// of the observed occurrences (a realistic on-road position); otherwise
  /// the snap-cell center.
  Point PointOf(LocationKey key) const {
    auto it = representatives_.find(key);
    if (it != representatives_.end()) {
      const auto& acc = it->second;
      return {acc.sum_x / acc.n, acc.sum_y / acc.n};
    }
    return grid_.CellCenter(Unpack(key));
  }

  /// Accumulates representative coordinates from every point in `dataset`.
  void RegisterDataset(const Dataset& dataset) {
    // Room for every point to be a new location, so the table never
    // rehashes while it fills.
    representatives_.reserve(representatives_.size() + dataset.TotalPoints());
    for (const auto& t : dataset.trajectories()) {
      for (const auto& tp : t.points()) RegisterPoint(tp.p);
    }
  }

  /// Accumulates a single observation.
  void RegisterPoint(const Point& p) {
    auto& acc = representatives_[KeyOf(p)];
    acc.sum_x += p.x;
    acc.sum_y += p.y;
    acc.n += 1.0;
  }

  /// Unpacks a key back into its cell coordinate.
  static CellCoord Unpack(LocationKey key) {
    CellCoord c;
    c.level = static_cast<int32_t>(key >> 54);
    c.ix = static_cast<int32_t>((key >> 27) & ((1u << 27) - 1));
    c.iy = static_cast<int32_t>(key & ((1u << 27) - 1));
    return c;
  }

 private:
  struct Accum {
    double sum_x = 0.0;
    double sum_y = 0.0;
    double n = 0.0;
  };

  GridSpec grid_;
  FlatMap<Accum> representatives_;
};

/// \brief PF distribution of one trajectory: location key -> occurrence
/// count f_p (paper notation F(tau)).
using PointFrequency = FlatMap<int64_t>;

/// \brief TF distribution over a dataset: location key -> number of
/// trajectories visiting it at least once (paper notation L).
using TrajectoryFrequency = FlatMap<int64_t>;

/// Counts PF for a single trajectory.
PointFrequency ComputePointFrequency(const Trajectory& t,
                                     const Quantizer& quantizer);

/// Counts TF over the whole dataset.
TrajectoryFrequency ComputeTrajectoryFrequency(const Dataset& d,
                                               const Quantizer& quantizer);

}  // namespace frt

#endif  // FRT_TRAJ_QUANTIZER_H_
