// Window audit: a read-only displacement report over one publishing window,
// and the runtime consumer of the shared-index concurrency contract.
//
// After a window is anonymized, the audit measures how far the published
// points moved: for every point of every published trajectory it finds the
// nearest original segment (a k=1 KNearest over the segments of the
// *input* dataset) and aggregates mean / max displacement. This is a pure
// utility diagnostic — it reads both datasets and writes nothing.
//
// Parts. The original segments are indexed in parts: a WindowAuditPart
// holds the segment index and the vertex table of one trajectory range of
// the input. BatchRunner builds one part per shard inside the shard's
// task, right after the shard's pipeline run, so the builds run in the
// parallel shard phase instead of serially after it; the one-part
// RunWindowAudit(original, ...) builds a single part over the whole input.
// A part is read-only once built, so any number of threads search it.
//
// An audit run over the parts works in three steps:
//   1. Classify (one pool task per published range): a point that any
//      part's vertex table holds counts as 0 (below); every other point is
//      collected.
//   2. Search: the collected points are deduplicated by the bit pattern of
//      their coordinates, and each distinct coordinate is searched once
//      (tasks over the pool, each with its own SearchContext): k=1 in every
//      part, and its distance is the minimum over the parts. A point with
//      a NaN coordinate is searched on its own, once per point.
//   3. Aggregate: the published points are summed per range, in point
//      order, by lookup, and the per-range partials are merged in range
//      order.
// A k=1 distance is a pure function of the query and the segment set (ties
// break by (dist², handle), index/README.md), and the minimum over
// disjoint parts is the minimum over their union, so points_audited,
// vertex_hits, the mean and the max are bit-identical to one search per
// point over one index of all segments — at every part count, range count
// and pool size. Only distance_evaluations depends on the parts. (Where the
// distance kernel is NaN — non-finite or overflowing input geometry — the
// kNN result is not order-independent in the first place.)
//
// Each part's index is bulk-built from entries stored in Morton (Z-order)
// order of their segment midpoints, so each cell's 8-lane blocks are
// spatially tight and the grid's block skipping (index/README.md) prunes
// most of the coarse cells every query visits. The order only changes the
// work, never the report.
//
// Vertex fast path. FRT inserts and deletes occurrences of signature
// locations, so most published points are original vertices left as they
// were. Beside its index each part keeps a flat, read-only vertex table
// (one open-addressed array) of the vertices where some segment's kernel
// is exactly 0:
//   - the start point `a` of every segment of its range whose kernel is
//     defined there (finite a, finite b - a, finite SegmentInvLen2):
//     PointSegmentDistance2Kernel at q == a gives r = 0, t = 0, e = 0 and
//     d² = 0 exactly (also for -0.0 vs 0.0);
//   - each trajectory's last vertex `b` whose PointSegmentDistance2 to
//     the trajectory's last segment is exactly 0.0. The kernel's t may
//     round below 1 at `b`, leaving a tiny nonzero distance, so the table
//     evaluates the kernel there (the one the index evaluates, bit for
//     bit) and keeps `b` only when it is 0.
// A published point q equal to a table key (q.x == k.x && q.y == k.y) is
// counted with displacement exactly 0 and not searched. That is the
// number the search would return, since no distance is below 0. A last
// vertex whose kernel is not 0 and a NaN coordinate (never equal) are
// still searched.

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
  /// Audits run only when enabled (they cost the part builds plus one k=1
  /// query per part for each distinct published coordinate that is not an
  /// original vertex).
  bool enabled = false;
  /// kNN strategy of the audit index.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Dyadic levels of each part's index grid (512x512 finest by default).
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
  /// Wall seconds spent collecting, ordering and indexing the original
  /// segments and building the vertex tables, summed over the parts (the
  /// parts of a batch are built concurrently, so this can exceed the wall
  /// time they took).
  double build_seconds = 0.0;
  /// Mean / max distance from a published point to the nearest original
  /// segment (meters in the paper's datasets). 0 when no points audited.
  double mean_displacement = 0.0;
  double max_displacement = 0.0;
  /// Exact distance evaluations of the audit's searches, summed over the
  /// parts. They run once per distinct coordinate the vertex tables did
  /// not answer (once per point for a NaN coordinate).
  uint64_t distance_evaluations = 0;
};

/// \brief The audit's read-only structures over one trajectory range of a
/// window's input: a Morton-ordered segment index and a vertex table.
class WindowAuditPart {
 public:
  /// A part with no segments.
  WindowAuditPart();
  /// Builds the part over `original` trajectories [range.begin,
  /// range.end). Does not keep a reference to `original`.
  WindowAuditPart(const Dataset& original, ShardRange range,
                  const WindowAuditConfig& config);
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
/// `published` is empty, no part holds a segment, or a part failed to
/// build.
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
