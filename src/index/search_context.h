// SearchContext: the reusable scratch object behind allocation-free,
// concurrent-reader-safe KNearest calls (declared in index/segment_index.h).
//
// A context owns every buffer a search needs — the best-K collector, the
// traversal frontier (stack + binary heap over arena slots), the
// visited-slot stamp vector, and the result vector the returned span
// points into. Reusing one context across queries means all of them keep
// their high-water-mark capacity, so a warm context performs zero heap
// allocations per query.
//
// The visited stamps are the concurrency keystone: searches used to mark
// visited cells with epoch stamps ON the shared arena, which made even
// const KNearest calls mutate the index. The stamps now live here, keyed
// by arena slot, so any number of threads can search one immutable index
// simultaneously — each through its own context, with zero shared writes
// (the index's distance_evaluations counter is a relaxed atomic).
//
// Contract: NOT thread-safe; use one context per thread. A context may be
// freely reused across different indexes and strategies (the stamp epoch
// is private to the context, so interleaving indexes is safe). Results
// from KNearest(q, options, ctx) alias ctx->results and die at the next
// search through the same context.

#ifndef FRT_INDEX_SEARCH_CONTEXT_H_
#define FRT_INDEX_SEARCH_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/collector.h"
#include "index/segment_index.h"

namespace frt {

/// A prioritized traversal candidate: an arena slot and the squared lower
/// bound on the distance from the query to anything stored in that cell's
/// subtree.
struct CellCandidate {
  double mindist2 = 0.0;
  uint32_t slot = 0;
};

/// Min-heap comparator on MINdist² (squared space preserves the ordering
/// of the former plain-distance heap exactly — sqrt is monotone — so
/// traversal order is unchanged up to rounding at exact ties).
struct CellCandidateGreater {
  bool operator()(const CellCandidate& a, const CellCandidate& b) const {
    return a.mindist2 > b.mindist2;
  }
};

class SearchContext {
 public:
  SearchContext() = default;
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  // Scratch state below is owned by the index implementation for the
  // duration of one KNearest call; treat it as opaque elsewhere.

  ResultCollector collector;
  std::vector<CellCandidate> stack;  ///< S_g: bottom-up ascent (HGb/HG+)
  std::vector<CellCandidate> heap;   ///< Q_g: best-first frontier (binary heap)
  std::vector<Neighbor> results;     ///< storage behind the returned span

  /// Rearms the visited stamps for a new search over an index with
  /// `slots` addressable slots and returns this search's stamp. Grows the
  /// stamp vector on first contact with a larger index (steady-state
  /// searches against a stable index never reallocate).
  uint32_t BeginVisit(size_t slots) {
    if (stamps_.size() < slots) stamps_.resize(slots, 0);
    if (++visit_epoch_ == 0) {
      // Wrap after 2^32 searches: stale stamps could collide with future
      // epochs, so reset them all.
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      visit_epoch_ = 1;
    }
    return visit_epoch_;
  }

  bool Visited(uint32_t slot) const {
    return stamps_[slot] == visit_epoch_;
  }
  void MarkVisited(uint32_t slot) { stamps_[slot] = visit_epoch_; }

 private:
  /// Per-slot visited stamps, keyed by arena/store slot; a slot is visited
  /// in the current search iff its stamp equals visit_epoch_.
  std::vector<uint32_t> stamps_;
  uint32_t visit_epoch_ = 0;
};

}  // namespace frt

#endif  // FRT_INDEX_SEARCH_CONTEXT_H_
