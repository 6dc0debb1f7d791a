// Linear-scan segment index: the correctness reference and the Fig. 5
// "Linear" competitor. O(n) per query, O(1) updates. Entries are stored
// inline in one flat vector (swap-erase removal), so the scan is a single
// sequential pass; handle -> position is a FlatSlotTable. Searches are
// read-only (the evaluation counter is a relaxed atomic), so concurrent
// readers are safe here too.

#ifndef FRT_INDEX_LINEAR_INDEX_H_
#define FRT_INDEX_LINEAR_INDEX_H_

#include <atomic>
#include <vector>

#include "index/flat_table.h"
#include "index/segment_index.h"

namespace frt {

/// \brief Flat segment store with swap-erase removal.
class LinearSegmentIndex : public SegmentIndex {
 public:
  void Reset(const GridSpec& grid) override;
  Status Insert(const SegmentEntry& entry) override;
  Status Build(Span<const SegmentEntry> entries) override;
  Status Remove(SegmentHandle handle) override;
  Span<const Neighbor> KNearest(const Point& q, const SearchOptions& options,
                                SearchContext* ctx) const override;
  size_t size() const override { return entries_.size(); }
  uint64_t distance_evaluations() const override {
    return dist_evals_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<SegmentEntry> entries_;
  FlatSlotTable slot_of_;  ///< handle -> position in entries_
  mutable std::atomic<uint64_t> dist_evals_{0};
};

}  // namespace frt

#endif  // FRT_INDEX_LINEAR_INDEX_H_
