// Re-identification (linking) attack — the privacy measurement of §V-B1.
//
// Implements the signature-based moving-object linking model the paper
// evaluates with [3]: the adversary derives per-user signatures from the
// original dataset, computes the same kind of signature for each published
// (anonymized) trajectory, and links it to the most similar user. The
// reported Linking Accuracy (LA) is the fraction of published trajectories
// attributed to their true source.
//
// Four signature types mirror the paper's LAs / LAt / LAst / LAsq columns:
//   spatial        — top-m cells weighted by PF x IDF(TF);
//   temporal       — hour-of-day visiting profile;
//   spatiotemporal — top-m (cell, time-bucket) pairs weighted like spatial;
//   sequential     — top-m collapsed cell bigrams weighted by support IDF.

#ifndef FRT_ATTACK_LINKER_H_
#define FRT_ATTACK_LINKER_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/bbox.h"
#include "geo/grid.h"
#include "traj/dataset.h"

namespace frt {

class WorkStealingPool;

/// Signature flavor used for linking.
enum class SignatureType {
  kSpatial,
  kTemporal,
  kSpatioTemporal,
  kSequential,
};

/// Display name ("LAs", "LAt", "LAst", "LAsq").
std::string_view SignatureTypeLabel(SignatureType t);

/// Linker tuning.
struct LinkerConfig {
  /// Elements kept per signature side (paper: the linking model of [3]
  /// uses the same signature size m = 10 as the defense).
  int m = 10;
  /// Cell granularity of spatial features (2^level per side). Fine cells
  /// (~40 m at city scale) make the attack exploit exact anchor locations,
  /// matching the location granularity of the linking model in [3].
  int cell_level = 9;
  /// Hour-of-day bins for the temporal profile.
  int hour_bins = 24;
  /// Hours per bucket in the joint spatiotemporal key.
  int st_bucket_hours = 4;
};

/// \brief Signature-based re-identification model.
class Linker {
 public:
  Linker(const BBox& region, LinkerConfig config = {});

  /// Builds the per-user reference signatures from the original dataset.
  void Train(const Dataset& original);

  /// Links every trajectory of `published` against the trained users and
  /// returns the linking accuracy for the given signature type. Published
  /// trajectories keep their source's id in record-level methods, which is
  /// what the accuracy is scored against; synthetic datasets score at
  /// chance level by construction.
  double LinkingAccuracy(const Dataset& published, SignatureType type) const;

  /// Predicted source ids, aligned with `published` order (for tests).
  std::vector<TrajId> Link(const Dataset& published,
                           SignatureType type) const;

 private:
  /// Sparse feature vector: feature key -> weight.
  using Profile = std::unordered_map<uint64_t, double>;

  Profile BuildProfile(const Trajectory& traj, SignatureType type,
                       const std::unordered_map<uint64_t, int64_t>&
                           document_frequency,
                       size_t corpus_size) const;

  /// The trajectory's top-m spatial cells by PF x IDF; the sequential
  /// signature is built over transitions between these significant cells
  /// only (as in [3], sequences are over a user's important locations, not
  /// every road cell passed).
  std::vector<uint64_t> TopSpatialCells(
      const Trajectory& traj,
      const std::unordered_map<uint64_t, int64_t>& spatial_df,
      size_t corpus_size) const;

  /// Document frequencies (how many trajectories contain each feature) of
  /// the given dataset, for the IDF part of the weights.
  std::unordered_map<uint64_t, int64_t> CountDocumentFrequency(
      const Dataset& d, SignatureType type) const;

  /// Builds the signature profile of every trajectory in `d` (used both
  /// for training references and for probing published data), one
  /// trajectory per index of `pool`.
  std::vector<Profile> BuildAllProfiles(const Dataset& d, SignatureType type,
                                        WorkStealingPool& pool) const;

  uint64_t SpatialKey(const Point& p) const;
  uint64_t TemporalKey(int64_t t) const;
  uint64_t SpatioTemporalKey(const Point& p, int64_t t) const;

  BBox region_;
  LinkerConfig config_;
  GridSpec grid_;
  std::vector<TrajId> user_ids_;
  std::vector<Profile> profiles_[4];  // per SignatureType
};

}  // namespace frt

#endif  // FRT_ATTACK_LINKER_H_
