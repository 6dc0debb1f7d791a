// Privacy accounting via sequential composition (paper Theorem 1).
//
// Mechanisms register their spend; the accountant enforces an optional total
// budget and reports the consumed epsilon. The paper's GL pipeline composes
// the global (epsilon_G) and local (epsilon_L) mechanisms sequentially, so
// its guarantee is epsilon = epsilon_G + epsilon_L. This is the ledger of
// one pipeline run; a stream's cross-window ledger is
// ObjectBudgetAccountant (dp/object_accountant.h).

#ifndef FRT_DP_ACCOUNTANT_H_
#define FRT_DP_ACCOUNTANT_H_

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "common/result.h"

namespace frt {

/// \brief Running total of sequentially composed epsilon spends.
class PrivacyAccountant {
 public:
  /// Unbounded accountant (tracks but never rejects).
  PrivacyAccountant() = default;

  /// Accountant enforcing a hard total budget.
  explicit PrivacyAccountant(double total_budget)
      : total_budget_(total_budget), enforce_(true) {}

  /// Registers a spend. Fails without recording when the budget would be
  /// exceeded (enforcing accountants only); the refusal names `label`.
  Status Spend(double epsilon, std::string_view label) {
    if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
      return Status::InvalidArgument(
          "epsilon spend must be positive and finite");
    }
    if (enforce_ && spent_ + epsilon > total_budget_ + 1e-12) {
      return Status::FailedPrecondition(
          "privacy budget exhausted: spent " + std::to_string(spent_) +
          " + requested " + std::to_string(epsilon) + " for " +
          std::string(label) + " > total " + std::to_string(total_budget_));
    }
    spent_ += epsilon;
    return Status::OK();
  }

  /// Total epsilon consumed so far (sequential composition).
  double spent() const { return spent_; }

  /// Remaining budget; +inf when not enforcing.
  double remaining() const {
    return enforce_ ? total_budget_ - spent_
                    : std::numeric_limits<double>::infinity();
  }

  bool enforcing() const { return enforce_; }

 private:
  double total_budget_ = 0.0;
  double spent_ = 0.0;
  bool enforce_ = false;
};

}  // namespace frt

#endif  // FRT_DP_ACCOUNTANT_H_
