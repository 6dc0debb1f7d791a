#include "index/segment_index.h"

#include "index/hierarchical_grid_index.h"
#include "index/linear_index.h"
#include "index/uniform_grid_index.h"

namespace frt {

std::string_view SearchStrategyName(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kLinear:
      return "Linear";
    case SearchStrategy::kUniformGrid:
      return "UG";
    case SearchStrategy::kTopDown:
      return "HGt";
    case SearchStrategy::kBottomUp:
      return "HGb";
    case SearchStrategy::kBottomUpDown:
      return "HG+";
  }
  return "?";
}

Status SegmentIndex::Build(Span<const SegmentEntry> entries) {
  for (const SegmentEntry& e : entries) {
    FRT_RETURN_IF_ERROR(Insert(e));
  }
  return Status::OK();
}

std::unique_ptr<SegmentIndex> MakeSegmentIndex(SearchStrategy strategy,
                                               const GridSpec& grid) {
  switch (strategy) {
    case SearchStrategy::kLinear:
      return std::make_unique<LinearSegmentIndex>();
    case SearchStrategy::kUniformGrid:
      return std::make_unique<UniformGridIndex>(grid);
    case SearchStrategy::kTopDown:
    case SearchStrategy::kBottomUp:
    case SearchStrategy::kBottomUpDown:
      return std::make_unique<HierarchicalGridIndex>(grid, strategy);
  }
  return nullptr;
}

size_t IndexTrajectory(const Trajectory& traj, SegmentIndex* index,
                       SegmentHandle base_handle) {
  size_t count = 0;
  for (size_t i = 0; i < traj.NumSegments(); ++i) {
    SegmentEntry e;
    e.handle = base_handle + i;
    e.traj = traj.id();
    e.geom = traj.SegmentAt(i);
    if (index->Insert(e).ok()) ++count;
  }
  return count;
}

}  // namespace frt
