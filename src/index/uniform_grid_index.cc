#include "index/uniform_grid_index.h"

#include <algorithm>
#include <cmath>

#include "index/search_context.h"

namespace frt {

UniformGridIndex::UniformGridIndex(const GridSpec& grid) { Reset(grid); }

void UniformGridIndex::Reset(const GridSpec& grid) {
  grid_ = grid;
  level_ = grid.finest_level();
  store_.clear();
  free_head_ = kNil;
  slot_of_.clear();
  cell_list_.clear();
  // Every list becomes free, lowest index on top (handed out first).
  free_lists_.clear();
  for (size_t i = cells_.size(); i-- > 0;) {
    cells_[i].clear();
    free_lists_.push_back(static_cast<uint32_t>(i));
  }
  dist_evals_.store(0, std::memory_order_relaxed);
}

template <typename Fn>
void UniformGridIndex::ForEachCoveredCell(const Segment& s, Fn&& fn) const {
  const CellCoord ca = grid_.CellAt(s.a, level_);
  const CellCoord cb = grid_.CellAt(s.b, level_);
  const int32_t x0 = std::min(ca.ix, cb.ix);
  const int32_t x1 = std::max(ca.ix, cb.ix);
  const int32_t y0 = std::min(ca.iy, cb.iy);
  const int32_t y1 = std::max(ca.iy, cb.iy);
  for (int32_t x = x0; x <= x1; ++x) {
    for (int32_t y = y0; y <= y1; ++y) {
      fn(CellCoord{level_, x, y}.Key());
    }
  }
}

Status UniformGridIndex::Insert(const SegmentEntry& entry) {
  if (slot_of_.Find(entry.handle) != kNil) {
    return Status::AlreadyExists("segment handle already indexed");
  }
  uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = store_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(store_.size());
    store_.emplace_back();
  }
  store_[slot].entry = entry;
  slot_of_.Insert(entry.handle, slot);
  ForEachCoveredCell(entry.geom, [&](uint64_t key) {
    uint32_t list = cell_list_.Find(key);
    if (list == kNil) {
      if (free_lists_.empty()) {
        list = static_cast<uint32_t>(cells_.size());
        cells_.emplace_back();
      } else {
        list = free_lists_.back();
        free_lists_.pop_back();
      }
      cell_list_.Insert(key, list);
    }
    cells_[list].push_back(slot);
  });
  return Status::OK();
}

Status UniformGridIndex::Build(Span<const SegmentEntry> entries) {
  slot_of_.Reserve(slot_of_.size() + entries.size());
  store_.reserve(slot_of_.size() + entries.size());
  for (const SegmentEntry& e : entries) {
    FRT_RETURN_IF_ERROR(Insert(e));
  }
  return Status::OK();
}

Status UniformGridIndex::Remove(SegmentHandle handle) {
  const uint32_t slot = slot_of_.Erase(handle);
  if (slot == kNil) {
    return Status::NotFound("segment handle not indexed");
  }
  ForEachCoveredCell(store_[slot].entry.geom, [&](uint64_t key) {
    const uint32_t list = cell_list_.Find(key);
    if (list == kNil) return;
    auto& v = cells_[list];
    v.erase(std::remove(v.begin(), v.end(), slot), v.end());
    if (v.empty()) {
      cell_list_.Erase(key);
      free_lists_.push_back(list);
    }
  });
  store_[slot].next_free = free_head_;
  free_head_ = slot;
  return Status::OK();
}

Span<const Neighbor> UniformGridIndex::KNearest(const Point& q,
                                                const SearchOptions& options,
                                                SearchContext* ctx) const {
  ResultCollector& collector = ctx->collector;
  collector.Reset(options.k, options.group_by);
  ctx->results.clear();
  if (slot_of_.empty() || options.k == 0) return {};

  // Dedup stamps for multi-cell segments live in the caller's context,
  // keyed by store slot — the store itself is never written by a search.
  ctx->BeginVisit(store_.size());

  const int64_t n = grid_.Resolution(level_);
  const double cell_w =
      grid_.region().Width() / static_cast<double>(n);
  const double cell_h =
      grid_.region().Height() / static_cast<double>(n);
  const double cell_min = std::min(cell_w, cell_h);
  const CellCoord c0 = grid_.CellAt(q, level_);
  uint64_t evals = 0;

  const int max_radius = static_cast<int>(n);  // covers the whole grid
  for (int radius = 0; radius <= max_radius; ++radius) {
    // Lower bound on the distance from q to any cell in this ring,
    // compared squared (both sides non-negative, so squaring preserves
    // the decision exactly).
    if (radius >= 2) {
      const double ring_lb = (radius - 1) * cell_min;
      if (collector.Full() && ring_lb * ring_lb > collector.Threshold2()) {
        break;
      }
    }
    for (int dx = -radius; dx <= radius; ++dx) {
      for (int dy = -radius; dy <= radius; ++dy) {
        if (std::max(std::abs(dx), std::abs(dy)) != radius) continue;
        const int32_t x = c0.ix + dx;
        const int32_t y = c0.iy + dy;
        if (x < 0 || y < 0 || x >= n || y >= n) continue;
        const uint32_t list = cell_list_.Find(CellCoord{level_, x, y}.Key());
        if (list == kNil) continue;
        for (const uint32_t slot : cells_[list]) {
          if (ctx->Visited(slot)) continue;  // dedup multi-cell segments
          ctx->MarkVisited(slot);
          const SegmentEntry& entry = store_[slot].entry;
          if (options.filter && !options.filter(entry)) continue;
          ++evals;
          collector.Offer(entry, PointSegmentDistance2(q, entry.geom));
        }
      }
    }
  }
  dist_evals_.fetch_add(evals, std::memory_order_relaxed);
  collector.Finalize(&ctx->results);
  return Span<const Neighbor>(ctx->results);
}

}  // namespace frt
