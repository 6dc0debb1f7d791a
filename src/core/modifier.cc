#include "core/modifier.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "geo/morton.h"
#include "index/search_context.h"
#include "obs/trace.h"

namespace frt {
namespace {

/// Handle mapper shared by the edit helpers: non-owning (the callables are
/// named lambdas in the Apply bodies, alive for the whole batch).
using HandleOf = FunctionRef<SegmentHandle(NodeHandle)>;

// Sorted keys with negative (deletion) and positive (insertion) deltas,
// split in one pass over `delta`; the fixed order keeps the whole
// modification deterministic.
struct SignedKeys {
  std::vector<LocationKey> neg;
  std::vector<LocationKey> pos;
};

SignedKeys SplitKeys(const FrequencyDelta& delta) {
  SignedKeys keys;
  keys.neg.reserve(delta.size());
  keys.pos.reserve(delta.size());
  for (const auto& [key, d] : delta) {
    if (d < 0) keys.neg.push_back(key);
    if (d > 0) keys.pos.push_back(key);
  }
  std::sort(keys.neg.begin(), keys.neg.end());
  std::sort(keys.pos.begin(), keys.pos.end());
  return keys;
}

// Deletes node `n` from `et`, keeping `index` synchronized. Returns the
// Def. 6 utility loss of the deletion.
double DeleteNodeSync(EditableTrajectory* et, NodeHandle n,
                      SegmentIndex* index, HandleOf h) {
  const double loss = et->DeletionLoss(n);
  const NodeHandle p = et->Prev(n);
  const NodeHandle x = et->Next(n);
  if (x != kInvalidNode) (void)index->Remove(h(n));
  if (p != kInvalidNode) (void)index->Remove(h(p));
  (void)et->Delete(n);
  if (p != kInvalidNode && x != kInvalidNode) {
    (void)index->Insert(SegmentEntry{h(p), et->id(), et->SegmentOf(p)});
  }
  return loss;
}

// Inserts `q` into the segment starting at `left`, keeping `index`
// synchronized. Returns the new node handle.
NodeHandle InsertPointSync(EditableTrajectory* et, NodeHandle left,
                           const Point& q, SegmentIndex* index, HandleOf h) {
  (void)index->Remove(h(left));
  auto res = et->InsertInto(left, q);
  const NodeHandle node = res.value();
  (void)index->Insert(SegmentEntry{h(left), et->id(), et->SegmentOf(left)});
  (void)index->Insert(SegmentEntry{h(node), et->id(), et->SegmentOf(node)});
  return node;
}

// Greedy minimum-loss deletion of up to `count` occurrences from `nodes`
// (all occurrences of one location in one trajectory). Recomputes losses
// after every deletion because deleting one occurrence of a dwell run
// changes its neighbors' reconnection cost.
double GreedyDeleteOccurrences(
    EditableTrajectory* et, std::vector<NodeHandle>* nodes, int64_t count,
    SegmentIndex* index, HandleOf h, size_t* deletions) {
  double loss = 0.0;
  for (int64_t i = 0; i < count && !nodes->empty(); ++i) {
    size_t best = 0;
    double best_loss = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < nodes->size(); ++j) {
      const double l = et->DeletionLoss((*nodes)[j]);
      if (l < best_loss) {
        best_loss = l;
        best = j;
      }
    }
    loss += DeleteNodeSync(et, (*nodes)[best], index, h);
    (*nodes)[best] = nodes->back();
    nodes->pop_back();
    ++(*deletions);
  }
  return loss;
}

// Global-edit handles: (trajectory slot << 32) | node, so the slot of a
// search hit is read straight out of its handle.
SegmentHandle GlobalHandle(size_t slot, NodeHandle n) {
  return (static_cast<SegmentHandle>(slot) << 32) | static_cast<uint32_t>(n);
}
size_t SlotOf(SegmentHandle h) { return static_cast<size_t>(h >> 32); }
NodeHandle NodeOf(SegmentHandle h) {
  return static_cast<NodeHandle>(static_cast<uint32_t>(h));
}

}  // namespace

Status IntraTrajectoryModifier::Apply(EditableTrajectory* traj,
                                      const FrequencyDelta& delta,
                                      ModifierStats* stats) const {
  if (traj == nullptr || stats == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  if (delta.empty()) return Status::OK();
  const SignedKeys keys = SplitKeys(delta);
  if (traj->NumPoints() == 0) {
    // Degenerate input: no geometry to search; insertions simply extend
    // the (empty) trajectory with the representative points.
    for (const LocationKey key : keys.pos) {
      const Point q = quantizer_->PointOf(key);
      for (int64_t i = 0; i < delta.at(key); ++i) {
        if (traj->NumPoints() > 0) {
          stats->utility_loss += Distance(q, traj->PointAt(traj->Tail()).p);
        }
        traj->AppendPoint(q, 0);
        ++stats->insertions;
      }
    }
    return Status::OK();
  }

  // One pass over the live nodes gathers everything the index build needs:
  // the trajectory's extent, the segment entries, and the occurrence lists
  // for the keys that shrink.
  auto handle_of = [](NodeHandle n) {
    return static_cast<SegmentHandle>(static_cast<uint32_t>(n));
  };
  BBox region;
  std::vector<SegmentEntry> entries;
  entries.reserve(traj->NumPoints());
  std::unordered_map<LocationKey, std::vector<NodeHandle>> occurrences;
  occurrences.reserve(keys.neg.size());
  for (const NodeHandle n : traj->LiveNodes()) {
    region.Extend(traj->PointAt(n).p);
    if (traj->IsSegmentStart(n)) {
      entries.push_back(
          SegmentEntry{handle_of(n), traj->id(), traj->SegmentOf(n)});
    }
    const LocationKey key = quantizer_->KeyOf(traj->PointAt(n).p);
    auto it = delta.find(key);
    if (it != delta.end() && it->second < 0) occurrences[key].push_back(n);
  }

  // Index region: the trajectory's own extent, padded by two snap cells so
  // representative points (cell centroids of this trajectory's locations)
  // always fall strictly inside.
  const auto& snap_region = quantizer_->grid().region();
  const double cell = std::max(snap_region.Width(), snap_region.Height()) /
                      static_cast<double>(quantizer_->grid().Resolution(
                          quantizer_->snap_level()));
  const double pad = 2.0 * cell + 1.0;
  region.min_x -= pad;
  region.min_y -= pad;
  region.max_x += pad;
  region.max_y += pad;

  GridSpec grid(region, grid_levels_);
  auto index = MakeSegmentIndex(strategy_, grid);
  FRT_RETURN_IF_ERROR(index->Build(entries));

  const uint64_t evals_before = index->distance_evaluations();

  // Phase 1: deletions (Def. 10, NS^- comes from the occurrence list).
  for (const LocationKey key : keys.neg) {
    auto it = occurrences.find(key);
    if (it == occurrences.end()) continue;
    stats->utility_loss += GreedyDeleteOccurrences(
        traj, &it->second, -delta.at(key), index.get(), handle_of,
        &stats->deletions);
  }

  // Phase 2: insertions (Def. 10, NS^+ via K-nearest segment search).
  SearchContext ctx;  // reused across every search of this batch
  for (const LocationKey key : keys.pos) {
    int64_t remaining = delta.at(key);
    const Point q = quantizer_->PointOf(key);
    while (remaining > 0) {
      if (traj->NumPoints() < 2) {
        // No segment exists; extend at the tail (degenerate cost).
        const double loss =
            traj->NumPoints() == 0
                ? 0.0
                : Distance(q, traj->PointAt(traj->Tail()).p);
        const int64_t t = traj->NumPoints() == 0
                              ? 0
                              : traj->PointAt(traj->Tail()).t;
        const NodeHandle tail_before = traj->Tail();
        traj->AppendPoint(q, t);
        if (tail_before != kInvalidNode) {
          FRT_RETURN_IF_ERROR(index->Insert(SegmentEntry{
              handle_of(tail_before), traj->id(),
              traj->SegmentOf(tail_before)}));
        }
        stats->utility_loss += loss;
        ++stats->insertions;
        --remaining;
        continue;
      }
      SearchOptions options;
      options.k = static_cast<size_t>(remaining);
      options.group_by = GroupBy::kSegment;
      // Sampled 1-in-64: full coverage would dominate the trace buffer.
      const bool traced =
          obs::TraceEnabled() && (stats->knn_searches & 63) == 0;
      const auto knn_start = traced ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
      const auto neighbors = index->KNearest(q, options, &ctx);
      if (traced) {
        obs::EmitSpan("index_knn", obs::SpanCategory::kIndex, {}, knn_start,
                      std::chrono::steady_clock::now());
      }
      ++stats->knn_searches;
      if (neighbors.empty()) break;  // defensive; cannot happen with >=2 pts
      for (const Neighbor& nb : neighbors) {
        const NodeHandle left =
            static_cast<NodeHandle>(static_cast<uint32_t>(nb.entry.handle));
        InsertPointSync(traj, left, q, index.get(), handle_of);
        stats->utility_loss += nb.dist;
        ++stats->insertions;
        --remaining;
      }
    }
  }

  stats->distance_evaluations +=
      index->distance_evaluations() - evals_before;
  return Status::OK();
}

Status InterTrajectoryModifier::Apply(std::vector<EditableTrajectory>* trajs,
                                      const FrequencyDelta& delta,
                                      ModifierStats* stats) const {
  if (trajs == nullptr || stats == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  if (delta.empty() || trajs->empty()) return Status::OK();

  const SignedKeys keys = SplitKeys(delta);
  auto index = MakeSegmentIndex(strategy_, grid_);

  // One pass over every trajectory's live nodes gathers the Morton key of
  // each segment (in the `(key << 32) | i` integers whose sort orders the
  // bulk build) and the per-(key, trajectory) occurrence lists.
  // Segment i's handle is handles[i]; ties on the key keep gather order.
  // The order only changes the work: kNN results are a pure function of
  // the segment set (index/README.md), and Morton order makes each
  // cell's 8-lane block boxes tight, so block skipping prunes well.
  std::vector<uint64_t> order;
  std::vector<SegmentHandle> handles;
  size_t total_points = 0;
  for (const EditableTrajectory& et : *trajs) total_points += et.NumPoints();
  order.reserve(total_points);
  handles.reserve(total_points);
  std::unordered_map<LocationKey,
                     std::unordered_map<size_t, std::vector<NodeHandle>>>
      occurrences;
  occurrences.reserve(delta.size());
  for (size_t i = 0; i < trajs->size(); ++i) {
    EditableTrajectory& et = (*trajs)[i];
    for (const NodeHandle n : et.LiveNodes()) {
      if (et.IsSegmentStart(n)) {
        const uint64_t morton = MortonKey(et.SegmentOf(n), grid_.region());
        order.push_back((morton << 32) | handles.size());
        handles.push_back(GlobalHandle(i, n));
      }
      const LocationKey key = quantizer_->KeyOf(et.PointAt(n).p);
      if (delta.count(key) > 0) occurrences[key][i].push_back(n);
    }
  }
  std::sort(order.begin(), order.end());
  {
    // Materialized once, already in order, and freed right after the
    // build: the index holds its own copies.
    std::vector<SegmentEntry> entries;
    entries.reserve(order.size());
    for (const uint64_t o : order) {
      const SegmentHandle h = handles[o & 0xffffffffu];
      const EditableTrajectory& et = (*trajs)[SlotOf(h)];
      entries.push_back(SegmentEntry{h, et.id(), et.SegmentOf(NodeOf(h))});
    }
    std::vector<uint64_t>().swap(order);
    std::vector<SegmentHandle>().swap(handles);
    FRT_RETURN_IF_ERROR(index->Build(entries));
  }

  const uint64_t evals_before = index->distance_evaluations();

  // Phase 1: TF decreases — complete deletion of the point from the
  // Delta_l trajectories with the smallest total deletion loss (Def. 8).
  for (const LocationKey key : keys.neg) {
    auto oit = occurrences.find(key);
    if (oit == occurrences.end()) continue;
    auto& per_traj = oit->second;
    const int64_t want = -delta.at(key);

    std::vector<std::pair<double, size_t>> costs;  // (total loss, slot)
    costs.reserve(per_traj.size());
    for (const auto& [slot, nodes] : per_traj) {
      double total = 0.0;
      for (const NodeHandle n : nodes) {
        total += (*trajs)[slot].DeletionLoss(n);
      }
      costs.emplace_back(total, slot);
    }
    std::sort(costs.begin(), costs.end());
    const size_t take =
        std::min<size_t>(costs.size(), static_cast<size_t>(want));
    for (size_t c = 0; c < take; ++c) {
      const size_t slot = costs[c].second;
      EditableTrajectory& et = (*trajs)[slot];
      auto per_handle = [&](NodeHandle n) { return GlobalHandle(slot, n); };
      auto& nodes = per_traj[slot];
      stats->utility_loss += GreedyDeleteOccurrences(
          &et, &nodes, static_cast<int64_t>(nodes.size()), index.get(),
          per_handle, &stats->deletions);
      per_traj.erase(slot);
    }
  }

  // Phase 2: TF increases — insert the point once into each of the Delta_l
  // nearest trajectories that do not currently contain it (Def. 8).
  SearchContext ctx;  // reused across every search of this batch
  // occupied[slot] != 0 while trajectory `slot` holds the current key; the
  // filter reads the slot straight out of the handle.
  std::vector<char> occupied(trajs->size(), 0);
  const auto eligible = [&occupied](const SegmentEntry& e) {
    return occupied[SlotOf(e.handle)] == 0;
  };
  for (const LocationKey key : keys.pos) {
    const int64_t want = delta.at(key);
    const Point q = quantizer_->PointOf(key);
    auto oit = occurrences.find(key);
    if (oit != occurrences.end()) {
      for (const auto& [slot, nodes] : oit->second) {
        if (!nodes.empty()) occupied[slot] = 1;
      }
    }
    SearchOptions options;
    options.k = static_cast<size_t>(want);
    options.group_by = GroupBy::kTrajectory;
    options.filter = eligible;
    // Sampled 1-in-64, matching the intra-trajectory phase.
    const bool traced =
        obs::TraceEnabled() && (stats->knn_searches & 63) == 0;
    const auto knn_start = traced ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
    const auto neighbors = index->KNearest(q, options, &ctx);
    if (traced) {
      obs::EmitSpan("index_knn", obs::SpanCategory::kIndex, {}, knn_start,
                    std::chrono::steady_clock::now());
    }
    ++stats->knn_searches;
    if (oit != occurrences.end()) {
      for (const auto& [slot, nodes] : oit->second) occupied[slot] = 0;
    }
    for (const Neighbor& nb : neighbors) {
      const size_t slot = SlotOf(nb.entry.handle);
      EditableTrajectory& et = (*trajs)[slot];
      auto per_handle = [&](NodeHandle n) { return GlobalHandle(slot, n); };
      InsertPointSync(&et, NodeOf(nb.entry.handle), q, index.get(),
                      per_handle);
      stats->utility_loss += nb.dist;
      ++stats->insertions;
    }
  }

  stats->distance_evaluations +=
      index->distance_evaluations() - evals_before;
  return Status::OK();
}

}  // namespace frt
