// Trajectory signatures (paper §III-B1).
//
// A signature point is *representative* (high point frequency PF within the
// user's own trajectory) and *distinctive* (low trajectory frequency TF
// across the dataset). Each location p in trajectory tau is weighted
//
//   weight(p, tau) = (f_p / |tau|) * log(|D| / l_p)
//
// and the top-m locations by weight form the signature s_m(tau). The union
// of all signatures is the candidate set P that both randomization
// mechanisms perturb.

#ifndef FRT_CORE_SIGNATURE_H_
#define FRT_CORE_SIGNATURE_H_

#include <vector>

#include "common/result.h"
#include "traj/dataset.h"
#include "traj/quantizer.h"

namespace frt {

/// \brief One scored location of a trajectory.
struct WeightedLocation {
  LocationKey key = 0;
  double weight = 0.0;          ///< representativeness x distinctiveness
  int64_t pf = 0;               ///< occurrences within the trajectory
  int64_t tf = 0;               ///< trajectories visiting the location
};

/// \brief Signatures of a whole dataset.
struct SignatureSet {
  /// Per trajectory (dataset order): top-m locations, best first.
  std::vector<std::vector<WeightedLocation>> per_traj;
  /// The candidate point set P (distinct keys of all signatures).
  std::vector<LocationKey> candidate_set;
  /// TF values over P (the global distribution L of Algorithm 1).
  TrajectoryFrequency tf_over_p;
  /// Signature size used for extraction.
  int m = 0;
};

/// \brief Extracts top-m signatures per trajectory.
class SignatureExtractor {
 public:
  /// \param quantizer location-identity mapping; must outlive the extractor.
  /// \param m         signature size (paper default m = 10).
  SignatureExtractor(const Quantizer* quantizer, int m)
      : quantizer_(quantizer), m_(m) {}

  /// Scores every distinct location of every trajectory and keeps the top-m
  /// per trajectory. Deterministic: ties break on the location key.
  Result<SignatureSet> Extract(const Dataset& dataset) const;

  int m() const { return m_; }

 private:
  const Quantizer* quantizer_;
  int m_;
};

}  // namespace frt

#endif  // FRT_CORE_SIGNATURE_H_
