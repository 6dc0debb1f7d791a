// Privacy accounting via sequential composition (paper Theorem 1).
//
// Mechanisms register their spend; the accountant enforces an optional total
// budget and reports the consumed epsilon. The paper's GL pipeline composes
// the global (epsilon_G) and local (epsilon_L) mechanisms sequentially, so
// its guarantee is epsilon = epsilon_G + epsilon_L.

#ifndef FRT_DP_ACCOUNTANT_H_
#define FRT_DP_ACCOUNTANT_H_

#include <cmath>
#include <deque>
#include <limits>
#include <string>

#include "common/result.h"

namespace frt {

/// \brief Ledger of sequentially composed epsilon spends.
class PrivacyAccountant {
 public:
  /// Unbounded accountant (tracks but never rejects).
  PrivacyAccountant() = default;

  /// Accountant enforcing a hard total budget.
  explicit PrivacyAccountant(double total_budget)
      : total_budget_(total_budget), enforce_(true) {}

  /// Registers a spend. Fails without recording when the budget would be
  /// exceeded (enforcing accountants only).
  Status Spend(double epsilon, std::string label) {
    if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
      return Status::InvalidArgument(
          "epsilon spend must be positive and finite");
    }
    if (enforce_ && spent_ + epsilon > total_budget_ + 1e-12) {
      return Status::FailedPrecondition(
          "privacy budget exhausted: spent " + std::to_string(spent_) +
          " + requested " + std::to_string(epsilon) + " > total " +
          std::to_string(total_budget_));
    }
    spent_ += epsilon;
    ledger_.push_back({epsilon, std::move(label)});
    TrimLedger();
    return Status::OK();
  }

  /// Caps the retained ledger entries (oldest dropped first); `spent()`
  /// and enforcement stay exact. Long-running services set this so the
  /// ledger does not grow without bound. 0 (default) keeps everything.
  void set_max_ledger_entries(size_t n) { max_ledger_entries_ = n; }

  /// \brief Preloads spend carried over from a predecessor ledger — e.g. a
  /// serving session resuming a feed whose evicted session already spent
  /// part of the budget.
  ///
  /// Bypasses enforcement (the carried amount was admitted by the
  /// predecessor when it was spent) and may leave the ledger over budget,
  /// in which case every further Spend is refused — the correct fate of a
  /// feed that exhausted its budget before the hand-off.
  void PreloadSpent(double epsilon, std::string label) {
    if (!(epsilon > 0.0)) return;
    spent_ += epsilon;
    ledger_.push_back({epsilon, std::move(label)});
    TrimLedger();
  }

  /// Total epsilon consumed so far (sequential composition).
  double spent() const { return spent_; }

  /// Remaining budget; +inf when not enforcing.
  double remaining() const {
    return enforce_ ? total_budget_ - spent_
                    : std::numeric_limits<double>::infinity();
  }

  bool enforcing() const { return enforce_; }
  double total_budget() const { return total_budget_; }

  struct Entry {
    double epsilon;
    std::string label;
  };
  /// Retained entries, oldest first (a deque: the over-cap trim pops the
  /// front in O(1), where a vector erase would shift every entry on every
  /// spend of a long-running feed).
  const std::deque<Entry>& ledger() const { return ledger_; }

 private:
  void TrimLedger() {
    if (max_ledger_entries_ == 0) return;
    while (ledger_.size() > max_ledger_entries_) ledger_.pop_front();
  }

  double total_budget_ = 0.0;
  double spent_ = 0.0;
  bool enforce_ = false;
  size_t max_ledger_entries_ = 0;
  std::deque<Entry> ledger_;
};

}  // namespace frt

#endif  // FRT_DP_ACCOUNTANT_H_
