#include "core/signature.h"

#include <algorithm>
#include <cmath>

namespace frt {

Result<SignatureSet> SignatureExtractor::Extract(
    const Dataset& dataset) const {
  if (m_ <= 0) return Status::InvalidArgument("signature size m must be > 0");
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");

  SignatureSet out;
  out.m = m_;
  out.per_traj.resize(dataset.size());

  const TrajectoryFrequency tf = ComputeTrajectoryFrequency(dataset,
                                                            *quantizer_);
  const double n = static_cast<double>(dataset.size());

  // Every signature key, duplicates included; sorted and deduplicated
  // into P below.
  std::vector<LocationKey>& candidate = out.candidate_set;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Trajectory& traj = dataset[i];
    if (traj.empty()) continue;
    const PointFrequency pf = ComputePointFrequency(traj, *quantizer_);
    std::vector<WeightedLocation> scored;
    scored.reserve(pf.size());
    const double len = static_cast<double>(traj.size());
    for (const auto& [key, f] : pf) {
      const int64_t l = tf.at(key);
      WeightedLocation wl;
      wl.key = key;
      wl.pf = f;
      wl.tf = l;
      // Representativeness f/|tau| times distinctiveness log(|D|/l). A
      // location visited by everyone has zero distinctiveness and can never
      // enter a signature.
      wl.weight = (static_cast<double>(f) / len) *
                  std::log(n / static_cast<double>(l));
      scored.push_back(wl);
    }
    // (weight desc, key asc) is a total order (keys are distinct), so the
    // partial sort keeps exactly the full sort's top m.
    const size_t keep = std::min(scored.size(), static_cast<size_t>(m_));
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const WeightedLocation& a, const WeightedLocation& b) {
                        if (a.weight != b.weight) return a.weight > b.weight;
                        return a.key < b.key;
                      });
    scored.resize(keep);
    for (const auto& wl : scored) candidate.push_back(wl.key);
    out.per_traj[i] = std::move(scored);
  }

  std::sort(candidate.begin(), candidate.end());
  candidate.erase(std::unique(candidate.begin(), candidate.end()),
                  candidate.end());
  out.tf_over_p.reserve(candidate.size());
  for (const LocationKey key : candidate) {
    out.tf_over_p[key] = tf.at(key);
  }
  return out;
}

}  // namespace frt
