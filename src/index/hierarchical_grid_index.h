// Hierarchical grid index (paper §IV-C1) with the three search strategies
// of §IV-C2 / Fig. 5: top-down (HGt), bottom-up (HGb) and the paper's novel
// bottom-up-down search (HG+, Algorithm 3).
//
// Structure. Dyadic grids G_0 (1x1) .. G_{H-1} (finest, 512x512 by default).
// Every segment lives in its best-fit cell (Definition 11): the finest cell
// containing both endpoints. Only non-empty cells are materialized; each
// materialized cell links to its nearest materialized ancestor (parent) and
// to the materialized descendants with no materialized cell in between
// (children) — exactly the paper's parent/children relation restricted to
// occupied cells. The root (level 0) is always materialized so every search
// has an anchor.
//
// Layout (see src/index/README.md). Cells live in a flat arena
// (std::vector) addressed by 32-bit slots; freed slots are recycled through
// a free list threaded through the parent field. Handle -> cell slot and
// cell coordinate -> cell slot are two open-addressed FlatSlotTables
// (common/flat_table.h), so an Insert allocates no map node and LocateStart
// probes a flat array, never a bucket chain. Segment entries are stored
// *inline* in their cell's segment vector, with the geometry mirrored into
// fixed-width SoA lane blocks (geo/segment_soa.h) that the batched 8-lane
// distance kernel sweeps — the index's only distance path — so the search
// loops touch no hash table and the inner distance loop vectorizes. Each
// block carries a conservative bounding box; a sweep skips blocks whose
// box lies beyond the current K-th distance, which matters for the coarse
// cells every query must visit (every ancestor of q has MINdist 0).
//
// Concurrency. Searches are read-only: visited-cell marks live in the
// caller's SearchContext (stamp vector keyed by arena slot), never on the
// arena, and the distance_evaluations counter is a relaxed atomic. Between
// mutations, any number of threads may run KNearest against one shared
// index, each with its own context.
//
// Updates. Insert creates the best-fit cell on demand and re-parents any
// existing cells that fall inside it; Remove splices empty cells out. This
// keeps the index valid across the edit batches of trajectory modification
// (Algorithm 3 line 36, ModifyAndUpdate). Every index lives for one call
// (one global-edit Apply, one audited window, one LocalMechanism::Apply),
// so the arena never needs repacking. The local stage reuses its index for
// every trajectory of the call: Reset re-targets the index at the next
// trajectory's grid and puts every slot back on the free list, keeping the
// slots' vectors and the tables' capacity, so a warm Reset + Build +
// KNearest cycle allocates nothing.

#ifndef FRT_INDEX_HIERARCHICAL_GRID_INDEX_H_
#define FRT_INDEX_HIERARCHICAL_GRID_INDEX_H_

#include <atomic>
#include <vector>

#include "common/flat_table.h"
#include "geo/grid.h"
#include "geo/segment_soa.h"
#include "index/segment_index.h"

namespace frt {

/// \brief The paper's hierarchical grid index over trajectory segments.
class HierarchicalGridIndex : public SegmentIndex {
 public:
  /// \param grid     region + level count (finest = 2^(levels-1) per side).
  /// \param strategy one of kTopDown / kBottomUp / kBottomUpDown; selects
  ///                 the traversal used by KNearest.
  HierarchicalGridIndex(const GridSpec& grid, SearchStrategy strategy);

  void Reset(const GridSpec& grid) override;
  Status Insert(const SegmentEntry& entry) override;
  Status Build(Span<const SegmentEntry> entries) override;
  Status Remove(SegmentHandle handle) override;
  Span<const Neighbor> KNearest(const Point& q, const SearchOptions& options,
                                SearchContext* ctx) const override;
  size_t size() const override { return cell_of_.size(); }
  uint64_t distance_evaluations() const override {
    return dist_evals_.load(std::memory_order_relaxed);
  }

  // --- introspection (tests / diagnostics) ---

  /// Number of materialized cells (including the root).
  size_t NumCells() const { return slot_of_coord_.size(); }

  /// Best-fit cell coordinate for a segment (Definition 11).
  CellCoord BestFit(const Segment& s) const {
    return grid_.BestFitCell(s.a, s.b);
  }

  /// Entries stored in the cell at `coord`, by reference into the index;
  /// empty when the cell is not materialized. Invalidated by updates.
  Span<const SegmentEntry> CellSegments(const CellCoord& coord) const;

  /// Coordinate of the materialized parent of the cell at `coord`.
  /// Returns the root coordinate when `coord` is the root or unknown.
  CellCoord CellParent(const CellCoord& coord) const;

  const GridSpec& grid() const { return grid_; }
  SearchStrategy strategy() const { return strategy_; }

 private:
  static constexpr uint32_t kNil = FlatSlotTable::kNone;

  /// One arena slot. Freed slots keep their vectors' capacity and are
  /// chained through `parent` (the free list), so cell churn under heavy
  /// update load reuses storage instead of reallocating.
  struct HgCell {
    CellCoord coord;
    uint32_t parent = kNil;            ///< arena slot; free-list link when dead
    std::vector<uint32_t> children;    ///< arena slots
    std::vector<SegmentEntry> segments;  ///< inline entries (Def. 11 residents)
    /// SoA mirror of segments' geometry, maintained in lockstep (PushBack
    /// with push_back, SwapRemove with swap-erase): lane i is segments[i].
    SegmentGeomSoA geom;
  };

  uint32_t FindSlot(const CellCoord& coord) const;
  uint32_t AllocCell(const CellCoord& coord);
  uint32_t GetOrCreateCell(const CellCoord& coord);
  void MaybePrune(uint32_t slot);

  /// The materialized cell the bottom-up phase starts from: the nearest
  /// materialized ancestor of the finest-level cell containing q
  /// (Algorithm 3 line 1, LocatePoint).
  uint32_t LocateStart(const Point& q) const;

  /// Evaluates the residents of `cell` against q through the batched SoA
  /// kernel and offers the eligible ones to the collector, skipping every
  /// lane block whose box lies beyond the collector's threshold and not
  /// offering lanes that do. Returns the evaluated eligible-candidate
  /// count (the distance_evaluations contribution).
  uint64_t SweepCell(const HgCell& cell, const Point& q,
                     const SearchOptions& options, SearchContext* ctx) const;

  void SearchTopDown(const Point& q, const SearchOptions& options,
                     SearchContext* ctx) const;
  void SearchBottomUp(const Point& q, const SearchOptions& options,
                      bool switch_to_queue, SearchContext* ctx) const;

  GridSpec grid_;
  SearchStrategy strategy_;
  std::vector<HgCell> arena_;
  uint32_t free_head_ = kNil;
  FlatSlotTable slot_of_coord_;  ///< CellCoord::Key() -> arena slot
  FlatSlotTable cell_of_;        ///< segment handle -> arena slot
  uint32_t root_ = 0;
  /// Pruning-effectiveness counter; relaxed atomic so concurrent readers
  /// can account without synchronizing (one fetch_add per query).
  mutable std::atomic<uint64_t> dist_evals_{0};
};

}  // namespace frt

#endif  // FRT_INDEX_HIERARCHICAL_GRID_INDEX_H_
