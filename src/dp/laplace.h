// Laplace mechanisms (paper §III-A and Theorem 2).
//
// The classic Laplace mechanism adds Lap(0, sensitivity/epsilon) noise to a
// query answer. The paper's local randomization additionally relies on a
// *non-zero-mean* Laplace mechanism Lap(mu, sensitivity/epsilon): shifting
// the center biases the noise direction (e.g. toward reducing a signature
// point's frequency) while Theorem 2 shows the privacy ratio bound — which
// only depends on the scale — still holds, so epsilon-DP is preserved.

#ifndef FRT_DP_LAPLACE_H_
#define FRT_DP_LAPLACE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/result.h"
#include "common/rng.h"

namespace frt {

/// \brief Samples Laplace noise calibrated to (sensitivity, epsilon).
class LaplaceMechanism {
 public:
  /// \param sensitivity L1 sensitivity of the query (paper Def. 2).
  /// \param epsilon     privacy budget of this mechanism.
  LaplaceMechanism(double sensitivity, double epsilon)
      : sensitivity_(sensitivity), epsilon_(epsilon) {}

  /// Validates parameters; call before first use when inputs are external.
  Status Validate() const {
    if (!(sensitivity_ > 0.0)) {
      return Status::InvalidArgument("sensitivity must be positive");
    }
    // An infinite epsilon would mean a zero noise scale: no privacy.
    if (!(epsilon_ > 0.0) || !std::isfinite(epsilon_)) {
      return Status::InvalidArgument("epsilon must be positive and finite");
    }
    return Status::OK();
  }

  double sensitivity() const { return sensitivity_; }
  double epsilon() const { return epsilon_; }

  /// Noise scale lambda = sensitivity / epsilon.
  double Scale() const { return sensitivity_ / epsilon_; }

  /// Classic zero-mean noise draw (paper Def. 3).
  double SampleNoise(Rng& rng) const { return rng.Laplace(0.0, Scale()); }

  /// Non-zero-mean draw (Theorem 2): Lap(mu, sensitivity/epsilon).
  double SampleNoise(Rng& rng, double mu) const {
    return rng.Laplace(mu, Scale());
  }

  /// Perturbs `value` with zero-mean noise.
  double Perturb(Rng& rng, double value) const {
    return value + SampleNoise(rng);
  }

  /// Perturbs `value` with noise centered at `mu`.
  double Perturb(Rng& rng, double value, double mu) const {
    return value + SampleNoise(rng, mu);
  }

 private:
  double sensitivity_;
  double epsilon_;
};

// ---- Post-processing (paper Alg. 1 line 5, Alg. 2 lines 8-9) ----
//
// Frequencies are integral and bounded by their semantics; rounding the
// noisy value is post-processing and does not affect the DP guarantee
// (Dwork & Roth).

/// Rounds to the nearest integer.
inline int64_t RoundToInt(double v) {
  return static_cast<int64_t>(std::llround(v));
}

/// Rounds to the nearest integer within [lo, hi] (Alg. 1's Round(v, [0,|D|])).
inline int64_t RoundToIntRange(double v, int64_t lo, int64_t hi) {
  return std::clamp<int64_t>(RoundToInt(v), lo, hi);
}

/// Rounds to a non-negative integer (Alg. 2's RoundInt + max(.,0)).
inline int64_t RoundToNonNegativeInt(double v) {
  return std::max<int64_t>(0, RoundToInt(v));
}

}  // namespace frt

#endif  // FRT_DP_LAPLACE_H_
