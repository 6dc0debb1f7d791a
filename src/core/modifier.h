// Trajectory modification (paper §IV-B): making trajectories satisfy the
// perturbed frequency distributions with minimum utility loss.
//
//   * IntraTrajectoryModifier (Def. 9/10) adjusts one trajectory's PF: each
//     frequency increase becomes a K-nearest *segment* search for insertion
//     sites; each decrease deletes the cheapest existing occurrences.
//   * InterTrajectoryModifier (Def. 7/8) adjusts the dataset's TF: each TF
//     increase becomes a K-nearest *trajectory* search (the K distinct
//     trajectories whose best segment is nearest, among those not yet
//     containing the point); each decrease removes the point entirely from
//     the K trajectories with the cheapest complete-deletion loss.
//
// Both keep the segment index synchronized across edits (ModifyAndUpdate,
// Alg. 3 line 36), so the whole batch of modifications runs against live
// geometry. The intra-trajectory modifier owns one index, one search
// context and its gather scratch, and resets them for every trajectory it
// edits; in a modifier that edits many trajectories (LocalMechanism::Apply
// makes one per call), the index build and searches stop allocating once
// they are warm.

#ifndef FRT_CORE_MODIFIER_H_
#define FRT_CORE_MODIFIER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/edit.h"
#include "index/search_context.h"
#include "index/segment_index.h"
#include "traj/quantizer.h"

namespace frt {

/// Frequency deltas to apply: location key -> (perturbed - original) count.
using FrequencyDelta = std::unordered_map<LocationKey, int64_t>;

/// Edit accounting for reports and benches.
struct ModifierStats {
  size_t insertions = 0;
  size_t deletions = 0;
  double utility_loss = 0.0;     ///< accumulated Def. 5 + Def. 6 losses
  uint64_t knn_searches = 0;
  uint64_t distance_evaluations = 0;  ///< from the segment index

  void MergeFrom(const ModifierStats& o) {
    insertions += o.insertions;
    deletions += o.deletions;
    utility_loss += o.utility_loss;
    knn_searches += o.knn_searches;
    distance_evaluations += o.distance_evaluations;
  }
};

/// \brief Applies a PF delta to one trajectory (local mechanism back-end).
///
/// Not thread-safe: the modifier owns the index and scratch every Apply
/// reuses, so concurrent callers need one modifier each.
class IntraTrajectoryModifier {
 public:
  /// \param quantizer   location identity + representative coordinates.
  /// \param strategy    kNN search strategy (Fig. 5 competitors).
  /// \param grid_levels levels of the per-trajectory index grid.
  IntraTrajectoryModifier(const Quantizer* quantizer, SearchStrategy strategy,
                          int grid_levels = 10)
      : quantizer_(quantizer),
        grid_levels_(grid_levels),
        // Re-targeted at each trajectory's own grid by Apply.
        index_(MakeSegmentIndex(strategy, GridSpec())) {}

  /// Deletions are applied before insertions; within each phase, keys are
  /// processed in ascending order for determinism. Deleting more
  /// occurrences than exist is not an error (all occurrences go); this
  /// matches the clamp-at-zero post-processing of Algorithm 2.
  Status Apply(EditableTrajectory* traj, const FrequencyDelta& delta,
               ModifierStats* stats);

 private:
  /// A node whose location shrinks, tagged with its position head to tail.
  struct Occurrence {
    LocationKey key;
    uint32_t seq;
    NodeHandle node;
  };

  const Quantizer* quantizer_;
  int grid_levels_;
  // Per-trajectory state, reset by every Apply; kept to reuse capacity.
  std::unique_ptr<SegmentIndex> index_;
  SearchContext ctx_;
  std::vector<LocationKey> neg_keys_;
  std::vector<LocationKey> pos_keys_;
  std::vector<SegmentEntry> entries_;
  std::vector<Occurrence> occurrences_;  ///< sorted by (key, seq)
  std::vector<NodeHandle> nodes_;        ///< one key's occurrences
};

/// \brief Applies a TF delta to a whole dataset (global mechanism back-end).
class InterTrajectoryModifier {
 public:
  /// \param grid index grid over the dataset region (paper: 512x512 finest).
  InterTrajectoryModifier(const Quantizer* quantizer, SearchStrategy strategy,
                          const GridSpec& grid)
      : quantizer_(quantizer), strategy_(strategy), grid_(grid) {}

  /// Applies all TF decreases (complete deletions from the cheapest
  /// trajectories), then all TF increases (single insertions into the
  /// nearest trajectories currently lacking the point).
  Status Apply(std::vector<EditableTrajectory>* trajs,
               const FrequencyDelta& delta, ModifierStats* stats) const;

 private:
  const Quantizer* quantizer_;
  SearchStrategy strategy_;
  GridSpec grid_;
};

}  // namespace frt

#endif  // FRT_CORE_MODIFIER_H_
