// Single-level uniform grid index — the Fig. 5 "UG" competitor.
//
// Segments register in every finest-level cell their bounding box overlaps
// (duplication instead of hierarchy). KNearest runs an expanding-ring
// search: ring r has a lower bound of (r-1) * cell_extent from the query,
// so the search stops once the collector threshold beats the next ring
// (compared in squared space, like every other pruning decision).
//
// Layout. Entries live in a flat slot store (recycled through a free list);
// cells hold 32-bit slot indices, so the ring scan reads entries without a
// hash lookup per candidate. Handle -> store slot and cell key -> cell list
// are open-addressed FlatSlotTables (index/flat_table.h), and emptied cell
// lists are recycled with their capacity, so Reset + Build of a warm index
// allocates nothing. Multi-cell duplicates are deduplicated with
// the caller's SearchContext stamp vector keyed by store slot — searches
// write nothing to the shared store, so concurrent readers are safe here
// exactly as on the hierarchical grid (see index/segment_index.h).

#ifndef FRT_INDEX_UNIFORM_GRID_INDEX_H_
#define FRT_INDEX_UNIFORM_GRID_INDEX_H_

#include <atomic>
#include <vector>

#include "geo/grid.h"
#include "index/flat_table.h"
#include "index/segment_index.h"

namespace frt {

/// \brief Uniform-grid segment index at the finest granularity of `grid`.
class UniformGridIndex : public SegmentIndex {
 public:
  explicit UniformGridIndex(const GridSpec& grid);

  void Reset(const GridSpec& grid) override;
  Status Insert(const SegmentEntry& entry) override;
  Status Build(Span<const SegmentEntry> entries) override;
  Status Remove(SegmentHandle handle) override;
  Span<const Neighbor> KNearest(const Point& q, const SearchOptions& options,
                                SearchContext* ctx) const override;
  size_t size() const override { return slot_of_.size(); }
  uint64_t distance_evaluations() const override {
    return dist_evals_.load(std::memory_order_relaxed);
  }

 private:
  /// One slot of the entry store.
  struct StoredEntry {
    SegmentEntry entry;
    uint32_t next_free = 0;  ///< free-list link while the slot is dead
  };

  /// Calls `fn(key)` for every finest-level cell key covered by the
  /// segment's bounding box.
  template <typename Fn>
  void ForEachCoveredCell(const Segment& s, Fn&& fn) const;

  GridSpec grid_;
  int level_ = 0;
  std::vector<StoredEntry> store_;
  uint32_t free_head_ = kNil;
  FlatSlotTable slot_of_;    ///< segment handle -> store slot
  FlatSlotTable cell_list_;  ///< CellCoord::Key() -> index into cells_
  /// Store slots registered in each occupied cell. An emptied list goes
  /// to free_lists_ and is reused, capacity and all, by the next new cell.
  std::vector<std::vector<uint32_t>> cells_;
  std::vector<uint32_t> free_lists_;
  /// Relaxed atomic so concurrent readers can account without
  /// synchronizing (one fetch_add per query).
  mutable std::atomic<uint64_t> dist_evals_{0};

  static constexpr uint32_t kNil = FlatSlotTable::kNone;
};

}  // namespace frt

#endif  // FRT_INDEX_UNIFORM_GRID_INDEX_H_
