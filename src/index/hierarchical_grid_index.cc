#include "index/hierarchical_grid_index.h"

#include <algorithm>

#include "index/search_context.h"

namespace frt {

HierarchicalGridIndex::HierarchicalGridIndex(const GridSpec& grid,
                                             SearchStrategy strategy)
    : strategy_(strategy) {
  Reset(grid);
}

void HierarchicalGridIndex::Reset(const GridSpec& grid) {
  grid_ = grid;
  slot_of_coord_.clear();
  cell_of_.clear();
  // Every slot goes onto the free list, lowest slot on top, so the slots
  // are handed out in the order a fresh arena would append them; AllocCell
  // clears a slot's vectors, keeping their capacity.
  free_head_ = kNil;
  for (size_t slot = arena_.size(); slot-- > 0;) {
    arena_[slot].parent = free_head_;
    free_head_ = static_cast<uint32_t>(slot);
  }
  root_ = AllocCell(CellCoord{0, 0, 0});
  dist_evals_.store(0, std::memory_order_relaxed);
}

uint32_t HierarchicalGridIndex::FindSlot(const CellCoord& coord) const {
  return slot_of_coord_.Find(coord.Key());
}

uint32_t HierarchicalGridIndex::AllocCell(const CellCoord& coord) {
  uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = arena_[slot].parent;
    arena_[slot].children.clear();
    arena_[slot].segments.clear();
    arena_[slot].geom.clear();
  } else {
    slot = static_cast<uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  HgCell& cell = arena_[slot];
  cell.coord = coord;
  cell.parent = kNil;
  slot_of_coord_.Insert(coord.Key(), slot);
  return slot;
}

uint32_t HierarchicalGridIndex::GetOrCreateCell(const CellCoord& coord) {
  if (uint32_t found = FindSlot(coord); found != kNil) return found;

  const uint32_t slot = AllocCell(coord);

  // Nearest materialized ancestor (the root always exists).
  CellCoord a = coord.Parent();
  uint32_t ancestor = kNil;
  while ((ancestor = FindSlot(a)) == kNil) a = a.Parent();

  // Cells currently attached to the ancestor that fall inside the new cell
  // become its children (the parent relation is "nearest materialized
  // enclosing cell", and the new cell now sits between them and `ancestor`).
  HgCell& cell = arena_[slot];
  auto& siblings = arena_[ancestor].children;
  for (size_t i = 0; i < siblings.size();) {
    if (coord.IsAncestorOf(arena_[siblings[i]].coord)) {
      arena_[siblings[i]].parent = slot;
      cell.children.push_back(siblings[i]);
      siblings[i] = siblings.back();
      siblings.pop_back();
    } else {
      ++i;
    }
  }
  cell.parent = ancestor;
  siblings.push_back(slot);
  return slot;
}

void HierarchicalGridIndex::MaybePrune(uint32_t slot) {
  // Splice out cells holding no segments; their children reattach to the
  // parent so only occupied cells stay materialized (plus the root).
  // Non-root cells always hold at least one segment (cells are created by
  // Insert and spliced as soon as their last segment leaves), so at most
  // one splice is needed per removal.
  HgCell& cell = arena_[slot];
  if (slot == root_ || !cell.segments.empty()) return;
  const uint32_t parent = cell.parent;
  auto& siblings = arena_[parent].children;
  siblings.erase(std::find(siblings.begin(), siblings.end(), slot));
  for (const uint32_t child : cell.children) {
    arena_[child].parent = parent;
    siblings.push_back(child);
  }
  slot_of_coord_.Erase(cell.coord.Key());
  cell.parent = free_head_;
  free_head_ = slot;
}

Status HierarchicalGridIndex::Insert(const SegmentEntry& entry) {
  if (cell_of_.Find(entry.handle) != kNil) {
    return Status::AlreadyExists("segment handle already indexed");
  }
  const CellCoord coord = grid_.BestFitCell(entry.geom.a, entry.geom.b);
  const uint32_t slot = GetOrCreateCell(coord);
  arena_[slot].segments.push_back(entry);
  arena_[slot].geom.PushBack(entry.geom);
  cell_of_.Insert(entry.handle, slot);
  return Status::OK();
}

Status HierarchicalGridIndex::Build(Span<const SegmentEntry> entries) {
  cell_of_.Reserve(cell_of_.size() + entries.size());
  // Occupied-cell counts are data-dependent; entries/2 matches the dense
  // per-trajectory workloads this path serves without overshooting on
  // wide-area datasets. Both counts are of live cells: after a Reset the
  // arena still holds the previous build's slots (on the free list), and
  // counting those would grow the capacity with every reuse.
  const size_t cells = NumCells() + entries.size() / 2 + 1;
  slot_of_coord_.Reserve(cells);
  arena_.reserve(cells);
  for (const SegmentEntry& e : entries) {
    FRT_RETURN_IF_ERROR(Insert(e));
  }
  return Status::OK();
}

Status HierarchicalGridIndex::Remove(SegmentHandle handle) {
  const uint32_t slot = cell_of_.Erase(handle);
  if (slot == kNil) {
    return Status::NotFound("segment handle not indexed");
  }
  auto& segs = arena_[slot].segments;
  auto sit = std::find_if(segs.begin(), segs.end(),
                          [handle](const SegmentEntry& e) {
                            return e.handle == handle;
                          });
  arena_[slot].geom.SwapRemove(static_cast<size_t>(sit - segs.begin()),
                               segs.back().geom);
  *sit = segs.back();
  segs.pop_back();
  MaybePrune(slot);
  return Status::OK();
}

Span<const SegmentEntry> HierarchicalGridIndex::CellSegments(
    const CellCoord& coord) const {
  const uint32_t slot = FindSlot(coord);
  if (slot == kNil) return {};
  return Span<const SegmentEntry>(arena_[slot].segments);
}

CellCoord HierarchicalGridIndex::CellParent(const CellCoord& coord) const {
  const uint32_t slot = FindSlot(coord);
  if (slot == kNil || arena_[slot].parent == kNil) {
    return arena_[root_].coord;
  }
  return arena_[arena_[slot].parent].coord;
}

uint32_t HierarchicalGridIndex::LocateStart(const Point& q) const {
  CellCoord c = grid_.CellAt(q, grid_.finest_level());
  while (true) {
    if (uint32_t slot = FindSlot(c); slot != kNil) return slot;
    c = c.Parent();
  }
}

uint64_t HierarchicalGridIndex::SweepCell(const HgCell& cell, const Point& q,
                                          const SearchOptions& options,
                                          SearchContext* ctx) const {
  const std::vector<SegmentEntry>& segs = cell.segments;
  const size_t n = segs.size();
  ResultCollector& collector = ctx->collector;

  // Block by block: a block whose box lies beyond theta_K holds nothing
  // that could enter the final top-K in either grouping mode, so it is
  // skipped without evaluating a lane (Theorem 4 applied to the block
  // box). Inside a block, a lane strictly beyond theta_K is counted but
  // not offered: in segment mode Offer would reject it, and in trajectory
  // mode it could only create or lower a trajectory best that still ranks
  // below the K held ones, so neither the threshold nor the result moves.
  // The segment-mode threshold is a heap peek and is re-read per block;
  // the trajectory-mode one runs a selection, so it is read once per cell
  // — a stale threshold is only larger, which is conservative.
  const bool per_block_threshold = options.group_by == GroupBy::kSegment;
  double thr2 = collector.Threshold2();
  uint64_t evals = 0;
  for (size_t b = 0, base = 0; base < n; ++b, base += kDistLanes) {
    const SegmentGeomBlock& block = cell.geom.block(b);
    if (per_block_threshold) thr2 = collector.Threshold2();
    if (BlockBeyond(q, block, thr2)) continue;
    const size_t lanes = std::min(kDistLanes, n - base);
    const SegmentEntry* entries = segs.data() + base;
    // The kernel computes every lane (it is branch-free, padded and
    // filtered-out lanes included); only eligible lanes are counted.
    double d2[kDistLanes];
    PointSegmentDistance2Batch(q, block, d2);
    for (size_t i = 0; i < lanes; ++i) {
      const SegmentEntry& e = entries[i];
      if (options.filter && !options.filter(e)) continue;
      ++evals;
      if (d2[i] > thr2) continue;
      collector.Offer(e, d2[i]);
    }
  }
  return evals;
}

Span<const Neighbor> HierarchicalGridIndex::KNearest(
    const Point& q, const SearchOptions& options, SearchContext* ctx) const {
  ctx->collector.Reset(options.k, options.group_by);
  ctx->results.clear();
  if (options.k == 0 || cell_of_.empty()) return {};
  switch (strategy_) {
    case SearchStrategy::kTopDown:
      SearchTopDown(q, options, ctx);
      break;
    case SearchStrategy::kBottomUp:
      SearchBottomUp(q, options, /*switch_to_queue=*/false, ctx);
      break;
    case SearchStrategy::kBottomUpDown:
    default:
      SearchBottomUp(q, options, /*switch_to_queue=*/true, ctx);
      break;
  }
  ctx->collector.Finalize(&ctx->results);
  return Span<const Neighbor>(ctx->results);
}

void HierarchicalGridIndex::SearchTopDown(const Point& q,
                                          const SearchOptions& options,
                                          SearchContext* ctx) const {
  // Classic best-first descent: binary heap on MINdist² from the root.
  ResultCollector& collector = ctx->collector;
  std::vector<CellCandidate>& heap = ctx->heap;
  heap.clear();
  heap.push_back({0.0, root_});
  uint64_t evals = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), CellCandidateGreater{});
    const CellCandidate cand = heap.back();
    heap.pop_back();
    // Heap order makes this exact: nothing left can beat theta_K
    // (Theorem 4).
    if (collector.Full() && cand.mindist2 > collector.Threshold2()) break;
    const HgCell& cell = arena_[cand.slot];
    evals += SweepCell(cell, q, options, ctx);
    for (const uint32_t child : cell.children) {
      const double child_dist2 =
          MinDist2PointBBox(q, grid_.CellBound(arena_[child].coord));
      if (collector.Full() && child_dist2 > collector.Threshold2()) continue;
      heap.push_back({child_dist2, child});
      std::push_heap(heap.begin(), heap.end(), CellCandidateGreater{});
    }
  }
  dist_evals_.fetch_add(evals, std::memory_order_relaxed);
}

void HierarchicalGridIndex::SearchBottomUp(const Point& q,
                                           const SearchOptions& options,
                                           bool switch_to_queue,
                                           SearchContext* ctx) const {
  // Algorithm 3. Phase 1 ("bottom-up"): a stack ascends from the finest
  // materialized cell containing q; the parent is pushed before the
  // children so finer cells near q are examined first, shrinking theta_K
  // early. Every ancestor of the start cell contains q, so parents are
  // pushed with MINdist 0 and are never pruned — the ascent always reaches
  // the root. Phase 2 ("top-down"): once the root is reached, remaining
  // candidates move into a binary heap on MINdist², enabling early
  // termination (Theorem 4). With switch_to_queue=false the stack is kept
  // throughout — the HGb competitor of Fig. 5, which cannot terminate early
  // and only benefits from prune-on-pop.
  //
  // Note: the paper's pseudocode leaves entries stranded on the stack when
  // the root flips the search into queue mode; we transfer them into the
  // queue so no subtree is dropped (required for exactness).
  //
  // "Visited" is a stamp in the caller's context keyed by arena slot (one
  // uint32 write/read, no allocation, no write to the shared index).
  ResultCollector& collector = ctx->collector;
  ctx->BeginVisit(arena_.size());

  std::vector<CellCandidate>& stack = ctx->stack;  // S_g
  std::vector<CellCandidate>& queue = ctx->heap;   // Q_g
  stack.clear();
  queue.clear();
  bool root_access = false;
  uint64_t evals = 0;

  stack.push_back({0.0, LocateStart(q)});

  const auto push_candidate = [&](uint32_t slot, double mindist2) {
    if (ctx->Visited(slot)) return;
    if (!root_access) {
      stack.push_back({mindist2, slot});
    } else {
      queue.push_back({mindist2, slot});
      std::push_heap(queue.begin(), queue.end(), CellCandidateGreater{});
    }
  };

  while (!stack.empty() || !queue.empty()) {
    CellCandidate cand{};
    if (!root_access) {
      cand = stack.back();
      stack.pop_back();
      if (ctx->Visited(cand.slot)) continue;
      // Prune-on-pop (cannot break: the stack is unordered).
      if (collector.Full() && cand.mindist2 > collector.Threshold2()) {
        ctx->MarkVisited(cand.slot);  // subtree provably uninteresting
        continue;
      }
    } else {
      std::pop_heap(queue.begin(), queue.end(), CellCandidateGreater{});
      cand = queue.back();
      queue.pop_back();
      if (ctx->Visited(cand.slot)) continue;
      // Ordered pops allow exact early termination.
      if (collector.Full() && cand.mindist2 > collector.Threshold2()) break;
    }
    const HgCell& cell = arena_[cand.slot];
    ctx->MarkVisited(cand.slot);

    evals += SweepCell(cell, q, options, ctx);

    // Push the parent first (ancestors contain q; MINdist 0), then the
    // children, so LIFO order examines fine cells near q before coarser
    // ones (paper §IV-C2).
    if (cell.parent != kNil && !ctx->Visited(cell.parent)) {
      if (switch_to_queue && !root_access && cell.parent == root_) {
        root_access = true;
        queue.push_back({0.0, root_});
        std::push_heap(queue.begin(), queue.end(), CellCandidateGreater{});
        // Transfer stranded stack entries so phase 2 still sees them.
        for (const CellCandidate& c : stack) {
          if (ctx->Visited(c.slot)) continue;
          queue.push_back(c);
          std::push_heap(queue.begin(), queue.end(), CellCandidateGreater{});
        }
        stack.clear();
      } else {
        push_candidate(cell.parent, 0.0);
      }
    }
    for (const uint32_t child : cell.children) {
      if (ctx->Visited(child)) continue;
      const double child_dist2 =
          MinDist2PointBBox(q, grid_.CellBound(arena_[child].coord));
      if (collector.Full() && child_dist2 > collector.Threshold2()) continue;
      push_candidate(child, child_dist2);
    }
  }
  dist_evals_.fetch_add(evals, std::memory_order_relaxed);
}

}  // namespace frt
