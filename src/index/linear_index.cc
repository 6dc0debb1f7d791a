#include "index/linear_index.h"

#include "index/search_context.h"

namespace frt {

void LinearSegmentIndex::Reset(const GridSpec& /*grid*/) {
  entries_.clear();
  slot_of_.clear();
  dist_evals_.store(0, std::memory_order_relaxed);
}

Status LinearSegmentIndex::Insert(const SegmentEntry& entry) {
  if (!slot_of_.Insert(entry.handle,
                       static_cast<uint32_t>(entries_.size()))) {
    return Status::AlreadyExists("segment handle already indexed");
  }
  entries_.push_back(entry);
  return Status::OK();
}

Status LinearSegmentIndex::Build(Span<const SegmentEntry> entries) {
  slot_of_.Reserve(slot_of_.size() + entries.size());
  entries_.reserve(entries_.size() + entries.size());
  for (const SegmentEntry& e : entries) {
    FRT_RETURN_IF_ERROR(Insert(e));
  }
  return Status::OK();
}

Status LinearSegmentIndex::Remove(SegmentHandle handle) {
  const uint32_t slot = slot_of_.Erase(handle);
  if (slot == FlatSlotTable::kNone) {
    return Status::NotFound("segment handle not indexed");
  }
  if (slot + 1 != entries_.size()) {
    entries_[slot] = entries_.back();
    slot_of_.Erase(entries_[slot].handle);
    slot_of_.Insert(entries_[slot].handle, slot);
  }
  entries_.pop_back();
  return Status::OK();
}

Span<const Neighbor> LinearSegmentIndex::KNearest(
    const Point& q, const SearchOptions& options, SearchContext* ctx) const {
  ResultCollector& collector = ctx->collector;
  collector.Reset(options.k, options.group_by);
  ctx->results.clear();
  uint64_t evals = 0;
  for (const SegmentEntry& e : entries_) {
    if (options.filter && !options.filter(e)) continue;
    ++evals;
    collector.Offer(e, PointSegmentDistance2(q, e.geom));
  }
  dist_evals_.fetch_add(evals, std::memory_order_relaxed);
  collector.Finalize(&ctx->results);
  return Span<const Neighbor>(ctx->results);
}

}  // namespace frt
