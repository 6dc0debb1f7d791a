// Window audit: a read-only displacement report over one publishing window.
//
// After a window is anonymized, the audit measures how far the published
// points moved: for every point of every published trajectory it finds the
// nearest original segment (the minimum point-segment distance over the
// segments of the *input* dataset) and aggregates mean / max displacement.
// This is a pure utility diagnostic — it reads both datasets and writes
// nothing.
//
// Parts. The original segments are held in parts: a WindowAuditPart holds
// a static segment tree and the vertex table of one trajectory range of
// the input. BatchRunner builds one part per shard inside the shard's
// task, right after the shard's pipeline run, so the builds run in the
// parallel shard phase instead of serially after it; the one-part
// RunWindowAudit(original, ...) builds a single part over the whole input.
// A part is read-only once built, so any number of threads search it.
//
// The tree. A part packs its segments into 8-lane SoA blocks
// (geo/segment_soa.h) straight from the trajectories, in Morton (Z-order)
// order of the segment midpoints, so each block is spatially tight. Above
// the blocks sits one contiguous box array per level, each box bounding
// eight boxes of the level below, up to one root box. A search descends
// nearest box first and skips a box when BoxBeyond puts everything in it
// beyond the best distance² so far; the deflated bound never drops a lane
// that ties it, at any level. The order only changes the work, never the
// report.
//
// An audit run over the parts works in three steps:
//   1. Classify (one pool task per published range): a point that any
//      part's vertex table holds counts as 0 (below); every other point is
//      collected.
//   2. Search: the collected points are deduplicated by the bit pattern of
//      their coordinates, and each distinct coordinate is searched once
//      (tasks over the pool, in Morton order of the coordinates), in every
//      part, each part starting from the best distance² so far. A point
//      with a NaN coordinate is NaN from every segment and is not searched.
//   3. Aggregate: the published points are summed per range, in point
//      order, by lookup, and the per-range partials are merged in range
//      order.
// Home part first. When the release has as many trajectories as the
// parts' ranges cover (every FRT release keeps the input's trajectories,
// in order), published trajectory t's points are checked against, and
// searched in, the part whose range holds t first: most of them are that
// part's vertices or lie nearest its segments, so the other parts are
// mostly pruned at their upper levels. Otherwise the parts go in order.
//
// A point's distance is the square root of the minimum kernel distance²
// over all segments (geo/segment.h), where a NaN kernel value —
// non-finite input geometry — never counts (as std::min over the
// distances skips it); +inf when no value counts. That minimum does not
// depend on the parts, their order or the visiting order, so
// points_audited, vertex_hits, the mean and the max are bit-identical to
// a brute-force scan at every part count, range count and pool size. Only
// distance_evaluations depends on the parts.
//
// Vertex fast path. FRT inserts and deletes occurrences of signature
// locations, so most published points are original vertices left as they
// were. Beside its tree each part keeps a flat, read-only vertex table
// (one open-addressed array) of the vertices where some segment's kernel
// is exactly 0:
//   - the start point `a` of every segment of its range whose kernel is
//     defined there (finite a, finite b - a, finite SegmentInvLen2):
//     PointSegmentDistance2Kernel at q == a gives r = 0, t = 0, e = 0 and
//     d² = 0 exactly (also for -0.0 vs 0.0);
//   - each trajectory's last vertex `b` whose PointSegmentDistance2 to
//     the trajectory's last segment is exactly 0.0. The kernel's t may
//     round below 1 at `b`, leaving a tiny nonzero distance, so the table
//     evaluates the kernel there (the one the tree evaluates, bit for
//     bit) and keeps `b` only when it is 0.
// A published point q equal to a table key (q.x == k.x && q.y == k.y) is
// counted with displacement exactly 0 and not searched. That is the
// number the search would return, since no distance is below 0. A last
// vertex whose kernel is not 0 and a NaN coordinate (never equal) go on
// to step 2.

#ifndef FRT_RUNTIME_WINDOW_AUDIT_H_
#define FRT_RUNTIME_WINDOW_AUDIT_H_

#include <cstdint>
#include <memory>

#include "common/span.h"
#include "core/pipeline.h"
#include "runtime/shard_plan.h"
#include "runtime/work_stealing_pool.h"
#include "traj/dataset.h"

namespace frt {

/// Configuration of the per-window displacement audit.
struct WindowAuditConfig {
  /// Audits run only when enabled (they cost the part builds plus one
  /// nearest-segment search for each distinct published coordinate that
  /// is not an original vertex).
  bool enabled = false;
  /// Unused: the audit searches its own segment tree, not a SegmentIndex.
  /// Kept only because perfbench/src/layers.cc still sets it; delete it
  /// with that line.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Unused, like `strategy`, and kept for the same reason.
  int index_levels = 10;
  /// Number of trajectory ranges the published dataset is split into.
  /// Fixed (not derived from the worker count) so aggregates are
  /// bit-identical across thread counts; planned by PlanShards
  /// (runtime/shard_plan.h), so clamped to [1, trajectory count].
  int ranges = 8;
};

/// Aggregates of one audit run. All fields except build_seconds are
/// deterministic given the two datasets and the config — independent of
/// thread count — and all but distance_evaluations also of the part count.
struct WindowAuditReport {
  bool ran = false;
  /// Published points measured (sum over trajectories of size()).
  uint64_t points_audited = 0;
  /// Published points answered by a vertex table, without a search.
  /// Counted in points_audited.
  uint64_t vertex_hits = 0;
  /// Wall seconds spent ordering and packing the original segments into
  /// the trees and building the vertex tables, summed over the parts (the
  /// parts of a batch are built concurrently, so this can exceed the wall
  /// time they took).
  double build_seconds = 0.0;
  /// Mean / max distance from a published point to the nearest original
  /// segment (meters in the paper's datasets). 0 when no points audited.
  double mean_displacement = 0.0;
  double max_displacement = 0.0;
  /// Live segment lanes the distance kernel evaluated in the audit's
  /// searches, summed over the parts (a block's padding lanes are not
  /// counted). The searches run once per distinct coordinate the vertex
  /// tables did not answer.
  uint64_t distance_evaluations = 0;
};

/// \brief The audit's read-only structures over one trajectory range of a
/// window's input: a static segment tree and a vertex table.
class WindowAuditPart {
 public:
  /// A part with no segments.
  WindowAuditPart();
  /// Builds the part over `original` trajectories [range.begin,
  /// range.end). Does not keep a reference to `original`.
  WindowAuditPart(const Dataset& original, ShardRange range);
  ~WindowAuditPart();
  WindowAuditPart(WindowAuditPart&&) noexcept;
  WindowAuditPart& operator=(WindowAuditPart&&) noexcept;

 private:
  friend WindowAuditReport RunWindowAudit(Span<const WindowAuditPart> parts,
                                          const Dataset& published,
                                          const WindowAuditConfig& config,
                                          WorkStealingPool* pool);
  struct State;
  std::unique_ptr<State> state_;
};

/// \brief Runs the displacement audit of `published` against the original
/// segments held by `parts` (together, the window's input).
///
/// `pool` supplies the workers that share the parts; pass nullptr to run
/// every task serially on the calling thread (results are identical).
/// Returns a report with ran=false when the config disables the audit,
/// `published` is empty, or no part holds a segment.
WindowAuditReport RunWindowAudit(Span<const WindowAuditPart> parts,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool);

/// \brief The one-part audit: builds one part over all of `original`, then
/// runs the audit above. Returns ran=false when `original` is empty.
WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool);

}  // namespace frt

#endif  // FRT_RUNTIME_WINDOW_AUDIT_H_
