// FrequencyRandomizer: the end-to-end publishing pipeline and the library's
// primary public API.
//
// Variants (paper §V-A):
//   * PureG — global TF perturbation only (eps = eps_G);
//   * PureL — local PF perturbation only (eps = eps_L);
//   * GL    — both, composed sequentially in either order, providing
//             eps = eps_G + eps_L by Theorem 1.

#ifndef FRT_CORE_PIPELINE_H_
#define FRT_CORE_PIPELINE_H_

#include <memory>
#include <string>

#include "core/anonymizer.h"
#include "core/global_mechanism.h"
#include "core/local_mechanism.h"
#include "core/signature.h"
#include "dp/accountant.h"

namespace frt {

/// Which mechanism runs first when both are enabled (exchangeable, §V-A).
enum class MechanismOrder {
  kLocalFirst,
  kGlobalFirst,
};

/// Configuration of the full pipeline.
struct FrequencyRandomizerConfig {
  /// Signature size (paper default m = 10).
  int m = 10;
  /// Privacy budgets; set one of them to 0 for the Pure variants. The total
  /// guarantee is their sum (Theorem 1).
  double epsilon_global = 0.5;
  double epsilon_local = 0.5;
  /// Both orders give the same eps (Theorem 1); global-first is the default
  /// because the local stage then has the last word on each trajectory's
  /// frequencies (the global stage cannot strip Stage-2's confusion points).
  MechanismOrder order = MechanismOrder::kGlobalFirst;
  /// kNN strategy used by both modification stages.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Snap-grid levels defining location identity (2^(levels-1) per side).
  int snap_levels = 11;
  /// Index grid levels (paper: 512x512 finest => 10).
  int index_levels = 10;
};

/// Timing and edit diagnostics of one run.
struct RandomizerReport {
  double local_seconds = 0.0;
  double global_seconds = 0.0;
  LocalReport local;
  GlobalReport global;
  double epsilon_spent = 0.0;
  size_t candidate_set_size = 0;
};

/// \brief The paper's frequency-based randomization model.
class FrequencyRandomizer : public Anonymizer {
 public:
  explicit FrequencyRandomizer(FrequencyRandomizerConfig config)
      : config_(config) {}

  /// "PureG", "PureL" or "GL" depending on the enabled budgets.
  std::string name() const override;

  /// Runs signature extraction on `input`, then the enabled mechanisms in
  /// the configured order. Deterministic given `rng`'s state.
  Result<Dataset> Anonymize(const Dataset& input, Rng& rng) override;

  /// Anonymize on a dataset the caller hands over: the first mechanism
  /// reads `input` itself instead of a copy, and it is freed as soon as
  /// that mechanism's output replaces it. Same output as Anonymize.
  Result<Dataset> AnonymizeOwned(Dataset input, Rng& rng);

  /// Diagnostics of the most recent Anonymize call.
  const RandomizerReport& report() const { return report_; }

  const FrequencyRandomizerConfig& config() const { return config_; }

 private:
  FrequencyRandomizerConfig config_;
  RandomizerReport report_;
};

}  // namespace frt

#endif  // FRT_CORE_PIPELINE_H_
