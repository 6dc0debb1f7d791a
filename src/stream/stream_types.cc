#include "stream/stream_types.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace frt {

bool AdmitWindowOnBudget(Dataset* window, size_t index,
                         double window_epsilon, BudgetAccounting accounting,
                         bool evict_exhausted,
                         const PrivacyAccountant& accountant,
                         const ObjectBudgetAccountant& object_accountant,
                         StreamReport* report, size_t* evicted,
                         const std::string& log_prefix) {
  if (accounting == BudgetAccounting::kWholesale) {
    if (!accountant.enforcing() ||
        accountant.remaining() + 1e-12 >= window_epsilon) {
      return true;
    }
    ++report->windows_refused;
    report->trajectories_refused += window->size();
    FRT_LOG(Warning) << log_prefix
                     << "privacy budget exhausted: refusing window #" << index
                     << " (" << window->size() << " trajectories); spent "
                     << accountant.spent() << " of "
                     << accountant.total_budget() << ", next window needs "
                     << window_epsilon;
    return false;
  }
  if (!object_accountant.enforcing()) return true;
  std::vector<TrajId> ids;
  ids.reserve(window->size());
  for (const auto& t : window->trajectories()) ids.push_back(t.id());
  std::vector<TrajId> admissible, exhausted;
  object_accountant.FilterAdmissible(ids, window_epsilon, &admissible,
                                     &exhausted);
  if (exhausted.empty()) return true;
  if (!evict_exhausted || admissible.empty()) {
    ++report->windows_refused;
    report->trajectories_refused += window->size();
    FRT_LOG(Warning) << log_prefix
                     << "per-object budget exhausted: refusing window #"
                     << index << " (" << window->size() << " trajectories, "
                     << exhausted.size() << " exhausted object(s); object "
                     << exhausted.front() << " spent "
                     << object_accountant.spent(exhausted.front()) << " of "
                     << object_accountant.per_object_budget()
                     << ", next window needs " << window_epsilon << ")";
    return false;
  }
  std::unordered_set<TrajId> drop(exhausted.begin(), exhausted.end());
  std::vector<Trajectory> kept;
  kept.reserve(admissible.size());
  for (auto& t : window->mutable_trajectories()) {
    if (drop.count(t.id()) == 0) kept.push_back(std::move(t));
  }
  *window = Dataset(std::move(kept));
  *evicted = exhausted.size();
  report->trajectories_evicted += exhausted.size();
  FRT_LOG(Warning) << log_prefix << "per-object budget: evicting "
                   << exhausted.size()
                   << " exhausted object(s) from window #" << index << " ("
                   << window->size() << " remain; object "
                   << exhausted.front() << " spent "
                   << object_accountant.spent(exhausted.front()) << " of "
                   << object_accountant.per_object_budget() << ")";
  return true;
}

}  // namespace frt
