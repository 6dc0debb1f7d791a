// Result collectors shared by all search strategies.
//
// A collector receives candidate (segment, squared distance) pairs in
// arbitrary order, maintains the current best-K according to the grouping
// mode, and exposes the squared pruning threshold theta_K² (paper
// Theorem 4): once K results are held, any cell with MINdist² > theta_K²
// can be skipped safely. All comparisons happen in squared space — sqrt is
// monotone, so the kept set and every pruning decision are identical to
// the plain-distance formulation — and the square root is taken exactly
// once per emitted result, in Finalize.
//
// The collector is a reusable scratch object (it lives inside a
// SearchContext): Reset() rearms it for a new query while keeping every
// internal buffer's capacity, so steady-state queries never allocate.
// Candidates are held as pointers into the index's inline entry storage —
// stable for the duration of a query, copied out only in Finalize.

#ifndef FRT_INDEX_COLLECTOR_H_
#define FRT_INDEX_COLLECTOR_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "index/segment_index.h"

namespace frt {

/// \brief Best-K accumulator over squared distances, reusable across
/// KNearest calls.
class ResultCollector {
 public:
  ResultCollector() = default;
  ResultCollector(size_t k, GroupBy group_by) { Reset(k, group_by); }

  /// Rearms for a new query; previously grown buffers keep their capacity.
  void Reset(size_t k, GroupBy group_by) {
    k_ = k;
    group_by_ = group_by;
    heap_.clear();
    items_.clear();
    traj_threshold2_ = std::numeric_limits<double>::infinity();
    traj_dirty_ = true;
    if (++epoch_ == 0) {
      // Epoch wrap (once per 2^32 queries): forget all stale stamps.
      std::fill(table_.begin(), table_.end(), TrajSlot{});
      epoch_ = 1;
    }
  }

  /// Offers a candidate at squared distance `dist2`. The caller has
  /// already applied the filter. `entry` must stay valid until Finalize
  /// (it points into the index).
  void Offer(const SegmentEntry& entry, double dist2) {
    if (k_ == 0) return;
    if (group_by_ == GroupBy::kSegment) {
      if (heap_.size() < k_) {
        heap_.push_back(Item{dist2, &entry});
        std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
      } else if (dist2 < heap_.front().dist2) {
        std::pop_heap(heap_.begin(), heap_.end(), WorstFirst{});
        heap_.back() = Item{dist2, &entry};
        std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
      }
      return;
    }
    // Trajectory mode: keep each trajectory's best segment.
    Item& best = BestOf(entry.traj);
    if (best.entry == nullptr || dist2 < best.dist2) {
      best = Item{dist2, &entry};
      traj_dirty_ = true;
    }
  }

  /// Consumes one batched-kernel output: entries [0, n) of `entries` with
  /// their squared distances in `dist2` (the lane buffer of a
  /// PointSegmentDistance2Batch sweep). Offer order is ascending index, so
  /// tie behaviour matches the scalar per-entry loop exactly. Only valid
  /// when no filter applies (filtered searches interleave the filter with
  /// per-entry Offers).
  void OfferBatch(const SegmentEntry* entries, const double* dist2,
                  size_t n) {
    for (size_t i = 0; i < n; ++i) Offer(entries[i], dist2[i]);
  }

  /// True when K results are held (threshold is meaningful).
  bool Full() const {
    return group_by_ == GroupBy::kSegment ? heap_.size() >= k_
                                          : items_.size() >= k_;
  }

  /// theta_K²: the K-th best squared distance; +inf while not Full.
  /// Compare against squared bounds (MinDist2PointBBox) only.
  double Threshold2() const {
    if (!Full()) return std::numeric_limits<double>::infinity();
    if (group_by_ == GroupBy::kSegment) return heap_.front().dist2;
    RefreshTrajThreshold();
    return traj_threshold2_;
  }

  /// Writes the sorted ascending-by-distance final results into `out`
  /// (cleared first; capacity reused across queries). This is the one
  /// place distances leave squared space.
  void Finalize(std::vector<Neighbor>* out) {
    out->clear();
    std::vector<Item>& held =
        group_by_ == GroupBy::kSegment ? heap_ : items_;
    // The heap property is irrelevant from here on: select in the
    // underlying storage directly instead of draining a copy of the queue.
    // Trajectory mode holds every trajectory seen, so only the top K are
    // ordered; (dist², handle) is a total order, so the K selected are the
    // K a full sort would put first.
    const size_t n = std::min(k_, held.size());
    std::partial_sort(held.begin(), held.begin() + n, held.end(),
                      [](const Item& a, const Item& b) {
                        if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
                        return a.entry->handle < b.entry->handle;
                      });
    out->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(Neighbor{*held[i].entry, std::sqrt(held[i].dist2)});
    }
  }

 private:
  struct Item {
    double dist2 = 0.0;
    const SegmentEntry* entry = nullptr;
  };
  struct WorstFirst {
    bool operator()(const Item& a, const Item& b) const {
      return a.dist2 < b.dist2;  // max-heap on squared distance
    }
  };
  /// Open-addressing slot of the trajectory->best table. A slot is live for
  /// the current query iff `epoch` matches the collector's; Reset just
  /// bumps the epoch instead of clearing the table.
  struct TrajSlot {
    TrajId traj = 0;
    uint32_t item = 0;   ///< index into items_
    uint32_t epoch = 0;  ///< 0 is never a live epoch
  };

  static size_t HashOf(TrajId traj) {
    uint64_t h = static_cast<uint64_t>(traj);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix finalizer
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }

  /// Returns the best-Item slot for `traj`, creating it on first sight.
  Item& BestOf(TrajId traj) {
    if (table_.empty()) table_.resize(64);
    size_t mask = table_.size() - 1;
    size_t i = HashOf(traj) & mask;
    while (table_[i].epoch == epoch_ && table_[i].traj != traj) {
      i = (i + 1) & mask;
    }
    if (table_[i].epoch != epoch_) {
      table_[i] = TrajSlot{traj, static_cast<uint32_t>(items_.size()),
                           epoch_};
      items_.push_back(Item{});
      if (items_.size() * 2 > table_.size()) {
        Grow();
        return items_[FindLive(traj)];
      }
      return items_[table_[i].item];
    }
    return items_[table_[i].item];
  }

  void Grow() {
    std::vector<TrajSlot> old;
    old.swap(table_);
    table_.resize(old.size() * 2);
    for (const TrajSlot& s : old) {
      if (s.epoch != epoch_) continue;
      ReinsertSlot(s);
    }
  }

  void ReinsertSlot(const TrajSlot& s) {
    const size_t mask = table_.size() - 1;
    size_t i = HashOf(s.traj) & mask;
    while (table_[i].epoch == epoch_) i = (i + 1) & mask;
    table_[i] = s;
  }

  uint32_t FindLive(TrajId traj) const {
    const size_t mask = table_.size() - 1;
    size_t i = HashOf(traj) & mask;
    while (table_[i].epoch != epoch_ || table_[i].traj != traj) {
      i = (i + 1) & mask;
    }
    return table_[i].item;
  }

  void RefreshTrajThreshold() const {
    if (!traj_dirty_) return;
    // K-th smallest best-distance across trajectories. The item list is
    // small in practice (bounded by trajectories within the search
    // frontier), so a partial selection is cheap relative to distance
    // evaluations.
    scratch_.clear();
    scratch_.reserve(items_.size());
    for (const Item& item : items_) scratch_.push_back(item.dist2);
    std::nth_element(scratch_.begin(), scratch_.begin() + (k_ - 1),
                     scratch_.end());
    traj_threshold2_ = scratch_[k_ - 1];
    traj_dirty_ = false;
  }

  size_t k_ = 0;
  GroupBy group_by_ = GroupBy::kSegment;
  // kSegment state: max-heap on squared distance over the best-K items.
  std::vector<Item> heap_;
  // kTrajectory state: per-trajectory best items + epoch-stamped
  // open-addressing lookup table (power-of-two size).
  std::vector<Item> items_;
  std::vector<TrajSlot> table_;
  uint32_t epoch_ = 0;
  mutable std::vector<double> scratch_;
  mutable double traj_threshold2_ =
      std::numeric_limits<double>::infinity();
  mutable bool traj_dirty_ = true;
};

}  // namespace frt

#endif  // FRT_INDEX_COLLECTOR_H_
