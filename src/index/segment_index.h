// Segment indexing and K-nearest search (paper §IV-C).
//
// Trajectory modification reduces to two nearest-neighbor problems:
//   * K-nearest segment search (Def. 10) — insertion sites within one
//     trajectory;
//   * K-nearest trajectory search (Def. 8) — insertion targets across the
//     dataset, i.e. the K *distinct trajectories* whose best segment is
//     nearest.
// Both are served by one abstraction: an index over segments that supports
// KNearest() with a grouping mode (by segment / by trajectory) and an
// eligibility filter, plus incremental updates so the index stays valid
// while a batch of edits is applied (Alg. 3 line 36, ModifyAndUpdate).
//
// Implementations: linear scan (baseline), single-level uniform grid (UG),
// and the paper's hierarchical grid (HG) with three search strategies:
// top-down best-first (HGt), bottom-up (HGb) and the paper's novel
// bottom-up-down (HG+, Algorithm 3). See src/index/README.md for the
// data-oriented layout shared by the implementations.

#ifndef FRT_INDEX_SEGMENT_INDEX_H_
#define FRT_INDEX_SEGMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/function_ref.h"
#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/segment.h"
#include "traj/trajectory.h"

namespace frt {

/// Stable identifier of an indexed segment (assigned by the caller).
using SegmentHandle = uint64_t;

/// \brief One indexed trajectory segment.
struct SegmentEntry {
  SegmentHandle handle = 0;
  TrajId traj = -1;
  Segment geom;
};

/// \brief A search hit: the entry plus its distance to the query point.
///
/// In GroupBy::kTrajectory mode, `entry` is the *best* (closest) segment of
/// its trajectory.
struct Neighbor {
  SegmentEntry entry;
  double dist = 0.0;
};

/// Grouping mode for KNearest.
enum class GroupBy {
  kSegment,     ///< k nearest individual segments (Def. 10)
  kTrajectory,  ///< k distinct trajectories by their nearest segment (Def. 8)
};

/// Search strategy — the Fig. 5 competitors.
enum class SearchStrategy {
  kLinear,       ///< scan every segment
  kUniformGrid,  ///< single-level 512x512 grid, expanding-ring search
  kTopDown,      ///< HGt: best-first from the root
  kBottomUp,     ///< HGb: stack-driven ascent from the query's finest cell
  kBottomUpDown, ///< HG+: Algorithm 3 (stack phase, then priority queue)
};

/// Display name ("Linear", "UG", "HGt", "HGb", "HG+").
std::string_view SearchStrategyName(SearchStrategy s);

/// Options for a KNearest call.
struct SearchOptions {
  size_t k = 1;
  GroupBy group_by = GroupBy::kSegment;
  /// Optional eligibility predicate; ineligible segments are skipped
  /// entirely (they neither appear in results nor tighten the threshold).
  /// Non-owning: the callable must be a named object that outlives the
  /// KNearest call (see common/function_ref.h).
  FunctionRef<bool(const SegmentEntry&)> filter;
};

/// \brief Reusable per-thread scratch state for KNearest calls.
///
/// Holds the collector, traversal frontier, and result buffers so
/// steady-state queries allocate nothing. Not thread-safe: use one context
/// per thread, never concurrently. Results returned by KNearest live
/// inside the context and are invalidated by the next search using it.
/// Defined in index/search_context.h.
class SearchContext;

/// \brief Interface of a dynamic segment index.
class SegmentIndex {
 public:
  virtual ~SegmentIndex() = default;

  /// Inserts a segment. Handles must be unique.
  virtual Status Insert(const SegmentEntry& entry) = 0;

  /// Bulk-loads `entries` into the index. Equivalent to inserting them in
  /// order, but lets implementations pre-size their storage; the
  /// per-trajectory throwaway indexes of IntraTrajectoryModifier::Apply are
  /// built through this path. Stops at the first failure.
  virtual Status Build(Span<const SegmentEntry> entries);

  /// Removes a previously inserted segment.
  virtual Status Remove(SegmentHandle handle) = 0;

  /// K-nearest search around `q` using caller-provided scratch state.
  /// Results are sorted by ascending (distance, handle), the order that
  /// also breaks every tie, so they are a pure function of the indexed
  /// segment set and the filter: every strategy and every insertion order
  /// returns the same list. Fewer than k results are returned when the
  /// index runs out of eligible candidates. The returned
  /// span points into `ctx` and is valid until the next search through the
  /// same context. With a warm context this performs no heap allocation.
  ///
  /// Thread safety: KNearest is a genuinely read-only operation. Between
  /// mutations (Insert/Build/Remove), any number of threads may
  /// search the SAME index concurrently, each through its own
  /// SearchContext — all per-query mutable state (visited stamps, scratch
  /// buffers) lives in the context, and the distance_evaluations counter
  /// is a relaxed atomic. Mutations still require exclusive access.
  virtual Span<const Neighbor> KNearest(const Point& q,
                                        const SearchOptions& options,
                                        SearchContext* ctx) const = 0;

  /// Number of live segments.
  virtual size_t size() const = 0;

  /// Number of exact point-segment distance evaluations since construction
  /// (pruning-effectiveness counter; used by tests and bench diagnostics).
  virtual uint64_t distance_evaluations() const = 0;
};

/// \brief Creates the index implementation matching `strategy`.
///
/// `grid` supplies the region and the finest granularity (the paper uses
/// 512x512 => 10 levels). The linear strategy ignores it.
std::unique_ptr<SegmentIndex> MakeSegmentIndex(SearchStrategy strategy,
                                               const GridSpec& grid);

/// Convenience: inserts every segment of `traj` into `index`, assigning
/// handles `base_handle + i` for segment i. Returns the number inserted.
size_t IndexTrajectory(const Trajectory& traj, SegmentIndex* index,
                       SegmentHandle base_handle);

}  // namespace frt

#endif  // FRT_INDEX_SEGMENT_INDEX_H_
