#include "attack/linker.h"

#include <algorithm>
#include <cmath>

#include "runtime/work_stealing_pool.h"

namespace frt {
namespace {

// Cosine similarity of two sparse vectors.
double Cosine(const std::unordered_map<uint64_t, double>& a,
              const std::unordered_map<uint64_t, double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [k, v] : small) {
    auto it = large.find(k);
    if (it != large.end()) dot += v * it->second;
  }
  if (dot <= 0.0) return 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [k, v] : a) na += v * v;
  for (const auto& [k, v] : b) nb += v * v;
  return dot / std::sqrt(na * nb);
}

// Keeps the m highest-weight features (deterministic ties on key).
void KeepTopM(std::unordered_map<uint64_t, double>* profile, int m) {
  if (profile->size() <= static_cast<size_t>(m)) return;
  std::vector<std::pair<double, uint64_t>> order;
  order.reserve(profile->size());
  for (const auto& [k, w] : *profile) order.emplace_back(w, k);
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  order.resize(m);
  std::unordered_map<uint64_t, double> kept;
  for (const auto& [w, k] : order) kept[k] = w;
  *profile = std::move(kept);
}

double IdfWeight(double count, double total, double n, double df) {
  return (count / total) * std::log(n / std::min(n, std::max(1.0, df)));
}

}  // namespace

std::string_view SignatureTypeLabel(SignatureType t) {
  switch (t) {
    case SignatureType::kSpatial:
      return "LAs";
    case SignatureType::kTemporal:
      return "LAt";
    case SignatureType::kSpatioTemporal:
      return "LAst";
    case SignatureType::kSequential:
      return "LAsq";
  }
  return "?";
}

Linker::Linker(const BBox& region, LinkerConfig config)
    : region_(region),
      config_(config),
      grid_(region, config.cell_level + 1) {}

uint64_t Linker::SpatialKey(const Point& p) const {
  const CellCoord c = grid_.CellAt(p, config_.cell_level);
  return static_cast<uint64_t>(c.ix) *
             static_cast<uint64_t>(grid_.Resolution(config_.cell_level)) +
         static_cast<uint64_t>(c.iy);
}

uint64_t Linker::TemporalKey(int64_t t) const {
  const int64_t hour = (t / 3600) % 24;
  return static_cast<uint64_t>(hour * config_.hour_bins / 24);
}

uint64_t Linker::SpatioTemporalKey(const Point& p, int64_t t) const {
  const uint64_t bucket =
      static_cast<uint64_t>(((t / 3600) % 24) / config_.st_bucket_hours);
  return (SpatialKey(p) << 8) | bucket;
}

std::unordered_map<uint64_t, int64_t> Linker::CountDocumentFrequency(
    const Dataset& d, SignatureType type) const {
  std::unordered_map<uint64_t, int64_t> df;
  std::unordered_map<uint64_t, size_t> last;  // dedup within a trajectory
  for (size_t i = 0; i < d.size(); ++i) {
    for (const auto& tp : d[i].points()) {
      uint64_t key = 0;
      switch (type) {
        case SignatureType::kSpatial:
          key = SpatialKey(tp.p);
          break;
        case SignatureType::kTemporal:
          key = TemporalKey(tp.t);
          break;
        case SignatureType::kSpatioTemporal:
          key = SpatioTemporalKey(tp.p, tp.t);
          break;
        case SignatureType::kSequential:
          continue;  // handled by BuildAllProfiles
      }
      auto it = last.find(key);
      if (it == last.end() || it->second != i + 1) {
        last[key] = i + 1;
        ++df[key];
      }
    }
  }
  return df;
}

std::vector<uint64_t> Linker::TopSpatialCells(
    const Trajectory& traj,
    const std::unordered_map<uint64_t, int64_t>& spatial_df,
    size_t corpus_size) const {
  Profile weights;
  for (const auto& tp : traj.points()) {
    weights[SpatialKey(tp.p)] += 1.0;
  }
  double total = 0.0;
  for (const auto& [k, v] : weights) total += v;
  if (total <= 0.0) return {};
  const double n = static_cast<double>(std::max<size_t>(corpus_size, 2));
  for (auto& [k, v] : weights) {
    auto it = spatial_df.find(k);
    const double df =
        it == spatial_df.end() ? 1.0 : static_cast<double>(it->second);
    v = IdfWeight(v, total, n, df);
  }
  KeepTopM(&weights, config_.m);
  std::vector<uint64_t> out;
  out.reserve(weights.size());
  for (const auto& [k, v] : weights) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

Linker::Profile Linker::BuildProfile(
    const Trajectory& traj, SignatureType type,
    const std::unordered_map<uint64_t, int64_t>& document_frequency,
    size_t corpus_size) const {
  Profile counts;
  for (const auto& tp : traj.points()) {
    switch (type) {
      case SignatureType::kSpatial:
        counts[SpatialKey(tp.p)] += 1.0;
        break;
      case SignatureType::kTemporal:
        counts[TemporalKey(tp.t)] += 1.0;
        break;
      case SignatureType::kSpatioTemporal:
        counts[SpatioTemporalKey(tp.p, tp.t)] += 1.0;
        break;
      case SignatureType::kSequential:
        break;  // handled by BuildAllProfiles
    }
  }
  double total = 0.0;
  for (const auto& [k, v] : counts) total += v;
  if (total <= 0.0) return counts;

  // The temporal profile is a plain visiting-time distribution; the other
  // types weight frequency by rarity (PF x IDF), mirroring the
  // representative-and-distinctive signature notion.
  if (type == SignatureType::kTemporal) {
    for (auto& [k, v] : counts) v /= total;
    return counts;
  }
  const double n = static_cast<double>(std::max<size_t>(corpus_size, 2));
  for (auto& [k, v] : counts) {
    auto it = document_frequency.find(k);
    const double df =
        it == document_frequency.end() ? 1.0
                                       : static_cast<double>(it->second);
    v = IdfWeight(v, total, n, df);
  }
  KeepTopM(&counts, config_.m);
  return counts;
}

std::vector<Linker::Profile> Linker::BuildAllProfiles(
    const Dataset& d, SignatureType type, WorkStealingPool& pool) const {
  std::vector<Profile> profiles(d.size());
  if (type != SignatureType::kSequential) {
    const auto df = CountDocumentFrequency(d, type);
    pool.Run(d.size(), [&](size_t i) {
      profiles[i] = BuildProfile(d[i], type, df, d.size());
    });
    return profiles;
  }

  // Sequential signatures: transitions between a trajectory's *significant*
  // cells only (its top-m spatial cells), not every road cell passed. This
  // matches the sequence-of-important-locations signature of [3] and makes
  // the feature sensitive to anchor removal and frequency randomization.
  const auto spatial_df = CountDocumentFrequency(d, SignatureType::kSpatial);
  std::vector<Profile> raw_counts(d.size());
  pool.Run(d.size(), [&](size_t i) {
    const auto top = TopSpatialCells(d[i], spatial_df, d.size());
    if (top.size() < 2) return;
    uint64_t prev = ~0ULL;
    for (const auto& tp : d[i].points()) {
      const uint64_t cell = SpatialKey(tp.p);
      if (!std::binary_search(top.begin(), top.end(), cell)) continue;
      if (cell == prev) continue;
      if (prev != ~0ULL) {
        raw_counts[i][(prev << 32) | (cell & 0xffffffffULL)] += 1.0;
      }
      prev = cell;
    }
  });
  // Document frequency over the bigram features.
  std::unordered_map<uint64_t, int64_t> seq_df;
  for (const auto& counts : raw_counts) {
    for (const auto& [k, v] : counts) ++seq_df[k];
  }
  const double n = static_cast<double>(std::max<size_t>(d.size(), 2));
  pool.Run(d.size(), [&](size_t i) {
    Profile& counts = raw_counts[i];
    double total = 0.0;
    for (const auto& [k, v] : counts) total += v;
    if (total <= 0.0) return;
    for (auto& [k, v] : counts) {
      v = IdfWeight(v, total, n,
                    static_cast<double>(seq_df.at(k)));
    }
    KeepTopM(&counts, config_.m);
  });
  for (size_t i = 0; i < d.size(); ++i) {
    profiles[i] = std::move(raw_counts[i]);
  }
  return profiles;
}

void Linker::Train(const Dataset& original) {
  user_ids_.clear();
  user_ids_.reserve(original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    user_ids_.push_back(original[i].id());
  }
  WorkStealingPool pool;
  for (int t = 0; t < 4; ++t) {
    profiles_[t] =
        BuildAllProfiles(original, static_cast<SignatureType>(t), pool);
  }
}

std::vector<TrajId> Linker::Link(const Dataset& published,
                                 SignatureType type) const {
  const int t = static_cast<int>(type);
  WorkStealingPool pool;
  const std::vector<Profile> probes = BuildAllProfiles(published, type, pool);
  std::vector<TrajId> predicted(published.size(), -1);
  pool.Run(published.size(), [&](size_t i) {
    double best = -1.0;
    size_t best_user = 0;
    for (size_t u = 0; u < profiles_[t].size(); ++u) {
      const double s = Cosine(probes[i], profiles_[t][u]);
      if (s > best) {
        best = s;
        best_user = u;
      }
    }
    predicted[i] = user_ids_.empty() ? -1 : user_ids_[best_user];
  });
  return predicted;
}

double Linker::LinkingAccuracy(const Dataset& published,
                               SignatureType type) const {
  if (published.empty() || user_ids_.empty()) return 0.0;
  const auto predicted = Link(published, type);
  size_t correct = 0;
  for (size_t i = 0; i < published.size(); ++i) {
    if (predicted[i] == published[i].id()) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(published.size());
}

}  // namespace frt
