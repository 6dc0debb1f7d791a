// Cross-window privacy accounting for streaming publication.
//
// The paper's guarantee (Theorem 1) is per moving object: the GL pipeline
// is (eps_G + eps_L)-DP with respect to datasets differing in ONE object's
// trajectory. When the same object reappears across stream windows its
// releases compose sequentially, but objects that never co-occur do not
// add up — so the end-to-end guarantee of a windowed stream is
//
//   max over objects o of  sum over windows containing o of eps_window.
//
// ObjectBudgetAccountant enforces exactly that: a hash-keyed ledger per
// object id, a window admitted iff the *maximum-spent* id in it can still
// afford the window's epsilon. It is a stream's only cross-window ledger.
// A wholesale budget is the same ledger over one object: a caller that
// cannot trust ids keys every window on one feed-wide id, so every
// window's spend sums against the budget (src/dp/README.md).
//
// Bounded retention: on an unbounded id space the map cannot grow forever.
// When the tracked-id cap is exceeded, the ids with the LOWEST spend are
// evicted and their spend is folded into a conservative floor: any id not
// found in the map is assumed to have already spent `evicted_floor()`
// (the maximum spend ever evicted). Unknown ids are thus over-charged,
// never under-charged, so enforcement stays sound — only utility (windows
// admitted) degrades, and only once the cap is actually hit. The maximum
// spent over all objects is maintained exactly regardless of eviction.
//
// This class is not thread-safe; the service drives it from its single
// dispatcher thread. "Atomic" below means transactional: a SpendWindow
// either records every id's spend or records nothing.

#ifndef FRT_DP_OBJECT_ACCOUNTANT_H_
#define FRT_DP_OBJECT_ACCOUNTANT_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "traj/trajectory.h"

namespace frt {

/// \brief Hash-keyed per-object sequential ledgers with an exact maximum.
class ObjectBudgetAccountant {
 public:
  /// Unbounded accountant (tracks but never rejects).
  ObjectBudgetAccountant() = default;

  /// Accountant enforcing a hard per-object budget.
  explicit ObjectBudgetAccountant(double per_object_budget)
      : per_object_budget_(per_object_budget), enforce_(true) {}

  /// \brief Atomically admits or refuses a whole window.
  ///
  /// Admission is decided by the maximum-spent id among `ids` (unknown ids
  /// are charged the eviction floor): if that id can still afford
  /// `epsilon`, every id's ledger is charged; otherwise nothing is
  /// recorded and FailedPrecondition is returned. `ids` must not contain
  /// duplicates (one trajectory per object per window — the same contract
  /// the window's parallel-composition argument needs).
  Status SpendWindow(const std::vector<TrajId>& ids, double epsilon) {
    if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
      return Status::InvalidArgument(
          "epsilon spend must be positive and finite");
    }
    if (enforce_) {
      double worst = 0.0;
      TrajId worst_id = 0;
      for (const TrajId id : ids) {
        const double s = spent(id);
        if (s > worst) {
          worst = s;
          worst_id = id;
        }
      }
      if (worst + epsilon > per_object_budget_ + kTolerance) {
        return Status::FailedPrecondition(
            "per-object budget exhausted: object " +
            std::to_string(worst_id) + " spent " + std::to_string(worst) +
            " + requested " + std::to_string(epsilon) + " > budget " +
            std::to_string(per_object_budget_));
      }
    }
    for (const TrajId id : ids) Charge(id, epsilon);
    MaybeEvict();
    return Status::OK();
  }

  /// \brief Splits `ids` into those that can still afford `epsilon` and
  /// those that cannot (per-object refusal: the caller evicts the
  /// exhausted objects from the window instead of dropping the window).
  /// Records nothing. Non-enforcing accountants admit everything.
  void FilterAdmissible(const std::vector<TrajId>& ids, double epsilon,
                        std::vector<TrajId>* admissible,
                        std::vector<TrajId>* exhausted) const {
    for (const TrajId id : ids) {
      const bool fits =
          !enforce_ || spent(id) + epsilon <= per_object_budget_ + kTolerance;
      (fits ? admissible : exhausted)->push_back(id);
    }
  }

  /// Cumulative epsilon charged to `id`; evicted/unseen ids report the
  /// conservative eviction floor.
  double spent(TrajId id) const {
    auto it = ledgers_.find(id);
    return it != ledgers_.end() ? it->second : evicted_floor_;
  }

  /// Remaining budget of `id`; +inf when not enforcing.
  double remaining(TrajId id) const {
    return enforce_ ? per_object_budget_ - spent(id)
                    : std::numeric_limits<double>::infinity();
  }

  /// \brief Caps the per-object ledgers retained in memory. When exceeded,
  /// the lowest-spend ids are evicted into the conservative floor. 0
  /// (default) tracks every id exactly.
  void set_max_tracked_objects(size_t n) {
    max_tracked_objects_ = n;
    MaybeEvict();
  }

  /// \brief Raises the conservative floor directly: every id not tracked
  /// exactly is assumed to have already spent at least `floor`.
  ///
  /// The serving layer uses this when a feed session resumes after idle
  /// eviction or a restart: the predecessor's exact ledgers are gone, so
  /// the fresh accountant starts every object at the predecessor's
  /// maximum spend — over-charging, never under-charging, exactly like
  /// bounded retention. The floor only ever rises. Also raises
  /// max_spent(): the carried guarantee must not shrink across the
  /// hand-off.
  void PreloadFloor(double floor) {
    if (floor <= evicted_floor_) return;
    evicted_floor_ = floor;
    max_spent_ = std::max(max_spent_, floor);
  }

  bool enforcing() const { return enforce_; }
  double per_object_budget() const { return per_object_budget_; }

  /// Exact maximum cumulative spend over ALL objects ever charged — the
  /// stream's end-to-end guarantee. Monotone, unaffected by eviction.
  double max_spent() const { return max_spent_; }

  /// Ids currently tracked exactly (<= max_tracked_objects when bounded).
  size_t tracked_objects() const { return ledgers_.size(); }

  /// Spend assumed for any id not in the map (max spend ever evicted).
  double evicted_floor() const { return evicted_floor_; }

 private:
  // PrivacyAccountant's enforcement slack: an exact-budget spend fits.
  static constexpr double kTolerance = 1e-12;

  void Charge(TrajId id, double epsilon) {
    // An unseen id starts at the floor.
    double& spent = ledgers_.try_emplace(id, evicted_floor_).first->second;
    spent += epsilon;
    max_spent_ = std::max(max_spent_, spent);
  }

  // Evicts the lowest spenders down to the cap: their spends are the
  // cheapest to fold into the floor (the floor only ever rises to the
  // largest evicted spend), so heavy spenders keep exact ledgers and the
  // conservative over-charge on returning evictees stays minimal.
  void MaybeEvict() {
    if (max_tracked_objects_ == 0 ||
        ledgers_.size() <= max_tracked_objects_) {
      return;
    }
    std::vector<std::pair<double, TrajId>> by_spend;
    by_spend.reserve(ledgers_.size());
    for (const auto& [id, spent] : ledgers_) by_spend.push_back({spent, id});
    const size_t excess = ledgers_.size() - max_tracked_objects_;
    std::nth_element(by_spend.begin(), by_spend.begin() + excess - 1,
                     by_spend.end());
    for (size_t i = 0; i < excess; ++i) {
      evicted_floor_ = std::max(evicted_floor_, by_spend[i].first);
      ledgers_.erase(by_spend[i].second);
    }
  }

  double per_object_budget_ = 0.0;
  bool enforce_ = false;
  size_t max_tracked_objects_ = 0;
  std::unordered_map<TrajId, double> ledgers_;  // id -> cumulative spend
  double evicted_floor_ = 0.0;
  double max_spent_ = 0.0;
};

}  // namespace frt

#endif  // FRT_DP_OBJECT_ACCOUNTANT_H_
