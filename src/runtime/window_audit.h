// Window audit: a read-only displacement report over one publishing window,
// and the runtime consumer of the shared-index concurrency contract.
//
// After a window is anonymized, the audit measures how far the published
// points moved: for every point of every published trajectory it finds the
// nearest original segment (k=1 KNearest against an index over the
// *input* dataset) and aggregates mean / max displacement. This is a pure
// utility diagnostic — it reads both datasets and writes nothing.
//
// Because KNearest is read-only and thread-safe (index/segment_index.h),
// the audit builds the segment index ONCE per window and fans the worker
// pool out over it — the published trajectories are split into fixed
// ranges, each worker sweeps ranges with its own SearchContext against the
// one shared index, and per-range partial aggregates are merged in range
// order.
//
// The index is bulk-built from entries stored in Morton (Z-order) order of
// their segment midpoints, so each cell's 8-lane blocks are spatially
// tight and the grid's block skipping (index/README.md) prunes most of the
// coarse cells every query visits. Reordering cannot change the report: a
// kNN result is a pure function of the indexed segment set (ties break by
// (dist², handle), index/README.md), so the order only changes the work.
//
// Vertex fast path. FRT inserts and deletes occurrences of signature
// locations, so most published points are original vertices left as they
// were. Beside the index the audit keeps a flat, read-only vertex table
// (one open-addressed array): the start points `a` of every original
// segment whose kernel is defined there (finite a, finite b - a, finite
// SegmentInvLen2). A published point q equal to such an `a`
// (q.x == a.x && q.y == a.y) is counted with displacement exactly 0 and
// not searched. That is the number the search would return:
// PointSegmentDistance2Kernel at q == a gives r = 0, t = 0, e = 0 and
// d² = 0 exactly (also for -0.0 vs 0.0), and no distance is below 0. So
// points_audited, the mean and the max are bit-identical to a
// search-only audit. A point equal only to a trajectory's last vertex
// (the kernel's t may round below 1 there) and a NaN coordinate (never
// equal) are still searched. All ranges share the table.

#ifndef FRT_RUNTIME_WINDOW_AUDIT_H_
#define FRT_RUNTIME_WINDOW_AUDIT_H_

#include <cstdint>

#include "core/pipeline.h"
#include "runtime/work_stealing_pool.h"
#include "traj/dataset.h"

namespace frt {

/// Configuration of the per-window displacement audit.
struct WindowAuditConfig {
  /// Audits run only when enabled (they cost one index build plus one
  /// k=1 query per published point that is not an original vertex).
  bool enabled = false;
  /// kNN strategy of the audit index.
  SearchStrategy strategy = SearchStrategy::kBottomUpDown;
  /// Dyadic levels of the audit index grid (512x512 finest by default).
  int index_levels = 10;
  /// Number of trajectory ranges the published dataset is split into.
  /// Fixed (not derived from the worker count) so aggregates are
  /// bit-identical across thread counts; planned by PlanShards
  /// (runtime/shard_plan.h), so clamped to [1, trajectory count].
  int ranges = 8;
};

/// Aggregates of one audit run. All fields except build_seconds are
/// deterministic given the two datasets and the config — independent of
/// thread count.
struct WindowAuditReport {
  bool ran = false;
  /// Published points measured (sum over trajectories of size()).
  uint64_t points_audited = 0;
  /// Published points answered by the vertex table, without a search.
  /// Counted in points_audited.
  uint64_t vertex_hits = 0;
  /// Wall seconds spent collecting, ordering and indexing the original
  /// segments and building the vertex table.
  double build_seconds = 0.0;
  /// Mean / max distance from a published point to the nearest original
  /// segment (meters in the paper's datasets). 0 when no points audited.
  double mean_displacement = 0.0;
  double max_displacement = 0.0;
  /// Exact distance evaluations of the audit's searches, which run only
  /// for the points the vertex table did not answer.
  uint64_t distance_evaluations = 0;
};

/// \brief Runs the displacement audit of `published` against `original`.
///
/// `pool` supplies the workers that share the index; pass nullptr to run
/// the ranges serially on the calling thread (results are identical).
/// Returns a report with ran=false when the config disables the audit or
/// either dataset has no usable geometry.
WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool);

}  // namespace frt

#endif  // FRT_RUNTIME_WINDOW_AUDIT_H_
