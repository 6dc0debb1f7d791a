#include "core/local_mechanism.h"

#include <algorithm>
#include <cmath>

#include "dp/laplace.h"

namespace frt {

std::vector<LocationKey> LocalMechanism::SelectPoints(
    const std::vector<WeightedLocation>& own_signature,
    const SignatureSet& signatures, const PointFrequency& pf,
    Rng& rng) const {
  const size_t want = 2 * static_cast<size_t>(signatures.m);
  std::vector<LocationKey> selected;
  selected.reserve(want);
  // At most 2m keys are ever taken, so a scan of `selected` beats a set.
  const auto taken = [&selected](LocationKey key) {
    return std::find(selected.begin(), selected.end(), key) !=
           selected.end();
  };

  // 1) The trajectory's own top-m signature, best first.
  for (const WeightedLocation& wl : own_signature) {
    if (selected.size() >= want) break;
    if (!taken(wl.key)) selected.push_back(wl.key);
  }

  // 2) Other locations of this trajectory that are in P (signature points
  //    of other users), preferred by their global rarity: raising them is
  //    "more convincing ... considering their PF and TF weights" (§III-B3).
  std::vector<std::pair<double, LocationKey>> in_p;
  for (const auto& [key, f] : pf) {
    if (taken(key)) continue;
    auto it = signatures.tf_over_p.find(key);
    if (it == signatures.tf_over_p.end()) continue;
    // Rank by PF weight relative to TF (same spirit as signature weights).
    const double score =
        static_cast<double>(f) / (1.0 + static_cast<double>(it->second));
    in_p.emplace_back(score, key);
  }
  std::sort(in_p.begin(), in_p.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [score, key] : in_p) {
    if (selected.size() >= want) break;
    if (!taken(key)) selected.push_back(key);
  }

  // 3) Random remaining locations of the trajectory until 2m (or exhausted).
  std::vector<LocationKey> rest;
  for (const auto& [key, f] : pf) {
    if (!taken(key)) rest.push_back(key);
  }
  std::sort(rest.begin(), rest.end());
  while (selected.size() < want && !rest.empty()) {
    const size_t pick = rng.UniformInt(uint64_t{rest.size()});
    selected.push_back(rest[pick]);
    rest[pick] = rest.back();
    rest.pop_back();
  }
  return selected;
}

Result<Dataset> LocalMechanism::Apply(const Dataset& dataset,
                                      const SignatureSet& signatures,
                                      Rng& rng,
                                      PrivacyAccountant* accountant,
                                      LocalReport* report) const {
  const LaplaceMechanism mechanism(/*sensitivity=*/1.0, config_.epsilon);
  FRT_RETURN_IF_ERROR(mechanism.Validate());
  if (signatures.per_traj.size() != dataset.size()) {
    return Status::InvalidArgument(
        "signature set does not match dataset size");
  }
  if (accountant != nullptr) {
    FRT_RETURN_IF_ERROR(accountant->Spend(config_.epsilon, "local-PF"));
  }

  const int m = signatures.m;
  // One modifier per call: every trajectory below reuses its index and
  // scratch. Nothing outlives the call, so concurrent calls (BatchRunner's
  // shards) share nothing.
  IntraTrajectoryModifier modifier(quantizer_, config_.strategy,
                                   config_.grid_levels);
  Dataset output;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Trajectory& traj = dataset[i];
    if (traj.empty()) {
      FRT_RETURN_IF_ERROR(output.Add(traj));
      continue;
    }
    const PointFrequency pf = ComputePointFrequency(traj, *quantizer_);
    const std::vector<LocationKey> selected =
        SelectPoints(signatures.per_traj[i], signatures, pf, rng);

    FrequencyDelta delta;
    // Stage 1: top-m ranked points, noise ~ Lap(-f_k, 1/eps_L).
    double mu_bar = 0.0;
    const int stage1_count =
        std::min<int>(m, static_cast<int>(selected.size()));
    for (int k = 0; k < stage1_count; ++k) {
      const LocationKey key = selected[k];
      const int64_t f = pf.count(key) > 0 ? pf.at(key) : 0;
      const double mu =
          config_.zero_mean_stage1 ? 0.0 : -static_cast<double>(f);
      const double noisy = mechanism.Perturb(rng, static_cast<double>(f),
                                             mu);
      const int64_t f_star = RoundToNonNegativeInt(noisy);
      mu_bar += static_cast<double>(f_star - f);  // the *actual* noise
      if (f_star != f) delta[key] = f_star - f;
    }
    if (stage1_count > 0) mu_bar /= static_cast<double>(stage1_count);

    // Stage 2: remaining m points, noise ~ Lap(-mu_bar, 1/eps_L). mu_bar is
    // typically negative, so -mu_bar raises these frequencies and keeps the
    // trajectory's cardinality roughly stable (§III-B3 "The Importance of
    // Stage-2").
    for (int k = config_.enable_stage2 ? stage1_count
                                       : static_cast<int>(selected.size());
         k < static_cast<int>(selected.size()); ++k) {
      const LocationKey key = selected[k];
      const int64_t f = pf.count(key) > 0 ? pf.at(key) : 0;
      const double noisy =
          mechanism.Perturb(rng, static_cast<double>(f), -mu_bar);
      const int64_t f_star = RoundToNonNegativeInt(noisy);
      if (f_star != f) delta[key] = f_star - f;
    }

    EditableTrajectory editable(traj);
    ModifierStats stats;
    FRT_RETURN_IF_ERROR(modifier.Apply(&editable, delta, &stats));
    if (report != nullptr) {
      report->edits.MergeFrom(stats);
      for (const auto& [key, d] : delta) {
        report->total_abs_frequency_change += std::llabs(d);
      }
      ++report->trajectories_processed;
    }
    FRT_RETURN_IF_ERROR(output.Add(editable.Materialize()));
  }
  return output;
}

}  // namespace frt
