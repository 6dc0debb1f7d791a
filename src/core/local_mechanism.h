// Local PF randomization (paper Algorithm 2, Theorem 3).
//
// For each trajectory, 2m locations are selected: the trajectory's own
// top-m signature first, then other locations of the trajectory that appear
// in the candidate set P (signature points of other users — raising their
// frequency plants confusing evidence), then random locations until 2m.
//
// Stage 1 perturbs the top-m frequencies with the *negative-mean* Laplace
// noise Lap(-f_k, 1/eps_L), biasing toward erasing the user's identifying
// locations. Stage 2 perturbs the next m frequencies with Lap(-mu_bar,
// 1/eps_L) where mu_bar is the average noise actually applied in Stage 1
// (typically negative, so Stage 2 raises frequencies), which keeps the
// trajectory's cardinality roughly stable. Both stages round to
// non-negative integers (post-processing). Theorem 2/3: the shifted means
// do not weaken the eps_L-DP guarantee because the ratio bound depends only
// on the scale.

#ifndef FRT_CORE_LOCAL_MECHANISM_H_
#define FRT_CORE_LOCAL_MECHANISM_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/modifier.h"
#include "core/signature.h"
#include "dp/accountant.h"
#include "traj/dataset.h"

namespace frt {

/// Configuration of the local mechanism.
struct LocalMechanismConfig {
  /// Privacy budget eps_L.
  double epsilon = 0.5;
  /// kNN strategy for intra-trajectory modification.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Cap on the levels of each trajectory's index grid: a trajectory's
  /// grid is LocalIndexLevels(its segment count, grid_levels) deep.
  int grid_levels = 10;
  /// --- ablation switches (papers §III-B3 design discussion) ---
  /// Disable Stage-2 to measure the trajectory-cardinality collapse the
  /// paper warns about ("purely conducting Stage-1 ... would result in a
  /// huge drop in the total number of points").
  bool enable_stage2 = true;
  /// Replace the non-trivial Lap(-f_k, 1/eps) of Stage-1 with the classic
  /// zero-mean Laplace, to measure how much the shifted mean contributes to
  /// erasing signature points.
  bool zero_mean_stage1 = false;
};

/// Diagnostics of one local-mechanism run.
struct LocalReport {
  ModifierStats edits;
  /// Total |noise| rounded into the PF distributions.
  int64_t total_abs_frequency_change = 0;
  size_t trajectories_processed = 0;
};

/// \brief The paper's local randomization mechanism.
class LocalMechanism {
 public:
  LocalMechanism(const Quantizer* quantizer, LocalMechanismConfig config)
      : quantizer_(quantizer), config_(config) {}

  /// Applies Algorithm 2 to every trajectory. `signatures` must have been
  /// extracted with the same quantizer. Spends eps_L on `accountant` when
  /// one is provided (Theorem 3: the mechanism is eps_L-DP per trajectory,
  /// and trajectories are disjoint users, so the dataset-level spend under
  /// one-trajectory adjacency is eps_L).
  Result<Dataset> Apply(const Dataset& dataset,
                        const SignatureSet& signatures, Rng& rng,
                        PrivacyAccountant* accountant,
                        LocalReport* report) const;

  /// Working memory of SelectPoints. Apply keeps one across all its
  /// trajectories, so once the vectors have grown a selection allocates
  /// nothing.
  struct Selection {
    /// The result: the selected keys, in selection order.
    std::vector<LocationKey> selected;
    /// One flag per entry of the trajectory's PF, in its entry order: the
    /// entry's key is already selected.
    std::vector<uint8_t> taken;
    /// Step 2's candidates: (score, key, PF entry index).
    struct Candidate {
      double score;
      LocationKey key;
      uint32_t entry;
    };
    std::vector<Candidate> in_p;
    /// Step 3's pool of unselected keys.
    std::vector<LocationKey> rest;
  };

  /// \brief The 2m-location selection for one trajectory (exposed for
  /// tests), into `selection->selected`: own signature keys first, then
  /// other candidate-set keys of the trajectory by weight, then random
  /// locations of the trajectory. `pf` is the trajectory's point-frequency
  /// distribution.
  void SelectPoints(const std::vector<WeightedLocation>& own_signature,
                    const SignatureSet& signatures, const PointFrequency& pf,
                    Rng& rng, Selection* selection) const;

  const LocalMechanismConfig& config() const { return config_; }

 private:
  const Quantizer* quantizer_;
  LocalMechanismConfig config_;
};

}  // namespace frt

#endif  // FRT_CORE_LOCAL_MECHANISM_H_
