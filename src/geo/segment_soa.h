// Batched point-segment distance over structure-of-arrays geometry.
//
// The Eq. (3) distance loop is the innermost loop of every kNN search, but
// with array-of-structs SegmentEntry storage each candidate's endpoints are
// strided 40 bytes apart and the compiler cannot vectorize the kernel. This
// header holds the SoA mirror the indexes keep next to their entry storage:
// geometry is packed into fixed-width lane blocks (start point ax/ay, the
// precomputed direction dx/dy and reciprocal squared length), and
// PointSegmentDistance2Batch evaluates one whole block per call with a
// plain counted loop the compiler auto-vectorizes (8 doubles = one AVX-512
// register or two AVX2 registers per array).
//
// Exactness: the per-lane arithmetic is PointSegmentDistance2Kernel
// (geo/segment.h) verbatim — multiply by the precomputed reciprocal, clamp,
// dot — so batched distances are bit-identical to PointSegmentDistance2
// (checked lane by lane in tests/index_block_skip_test.cc). Padded
// tail lanes compute garbage that callers must ignore (they never read
// lanes >= size()).
//
// Every block also carries a conservative bounding box of its live lanes,
// so a search can skip a whole block whose box lies beyond its current
// pruning threshold (BlockBeyond) without evaluating any lane.

#ifndef FRT_GEO_SEGMENT_SOA_H_
#define FRT_GEO_SEGMENT_SOA_H_

#include <cstddef>
#include <vector>

#include "geo/bbox.h"
#include "geo/segment.h"

namespace frt {

/// Compile-time lane width of the batched distance kernel.
inline constexpr size_t kDistLanes = 8;

/// \brief One lane block of SoA segment geometry.
struct SegmentGeomBlock {
  double ax[kDistLanes];
  double ay[kDistLanes];
  // Precomputed once at insert: direction and reciprocal squared length,
  // so the hot loop performs no division.
  double dx[kDistLanes];
  double dy[kDistLanes];
  double inv_len2[kDistLanes];
  /// Bounds every live lane's endpoints. Only ever grown while the block
  /// holds lanes (reset when lane 0 is rewritten), so it may be stale-large
  /// after removals but never too small. (The kernel reads no end point,
  /// so blocks store none.)
  BBox box;
};

/// \brief True when no live lane of `block` can have a kernel distance²
/// from q at or below `thr2`, so the block may be skipped.
///
/// The box bound is exact geometry, but the kernel rounds: a lane at true
/// distance g can come out a few ulps of (g + block extent) below g. The
/// bound is therefore deflated relatively by 1e-12 and absolutely by
/// 1e-17 x the squared box diagonal (together they cover that error with
/// room to spare), so a lane that ties the threshold is never dropped.
inline bool BlockBeyond(const Point& q, const SegmentGeomBlock& block,
                        double thr2) {
  const double w = block.box.max_x - block.box.min_x;
  const double h = block.box.max_y - block.box.min_y;
  return MinDist2PointBBox(q, block.box) * (1.0 - 1e-12) -
             1e-17 * (w * w + h * h) >
         thr2;
}

/// \brief Evaluates the squared distance from q to every lane of `block`,
/// writing kDistLanes results into `out`. Lanes past the caller's live
/// count hold garbage — skip them.
inline void PointSegmentDistance2Batch(const Point& q,
                                       const SegmentGeomBlock& block,
                                       double* __restrict out) {
  // A single counted loop over parallel arrays: every operation maps to a
  // packed-double instruction, and the identical expression tree keeps the
  // results bit-equal to PointSegmentDistance2Kernel per lane. (__restrict
  // spares GCC the runtime aliasing check it would otherwise version the
  // loop with; the vectorization itself additionally needs the project-wide
  // -fno-trapping-math so the clamp if-converts.)
  for (size_t lane = 0; lane < kDistLanes; ++lane) {
    const double rx = q.x - block.ax[lane];
    const double ry = q.y - block.ay[lane];
    double t = (rx * block.dx[lane] + ry * block.dy[lane]) *
               block.inv_len2[lane];
    t = t < 0.0 ? 0.0 : t;
    t = t > 1.0 ? 1.0 : t;
    const double ex = rx - block.dx[lane] * t;
    const double ey = ry - block.dy[lane] * t;
    out[lane] = ex * ex + ey * ey;
  }
}

/// \brief Growable SoA mirror of a cell's segment geometry.
///
/// Maintained in lockstep with the owning cell's SegmentEntry vector:
/// PushBack mirrors push_back, SwapRemove mirrors the swap-erase removal
/// idiom, so geometry lane i always belongs to entry i. Blocks keep their
/// capacity across clear() for the arena's free-list slot reuse.
///
/// Block boxes: PushBack extends the box of the block it writes (starting
/// afresh at lane 0, when the block holds nothing live), SwapRemove
/// extends the box of the block receiving the moved lane, and nothing
/// shrinks a box — so each box always bounds its block's live lanes.
class SegmentGeomSoA {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SegmentGeomBlock& block(size_t b) const { return blocks_[b]; }

  void clear() { size_ = 0; }

  void PushBack(const Segment& s) {
    const size_t b = size_ / kDistLanes;
    if (b == blocks_.size()) blocks_.emplace_back();
    if (size_ % kDistLanes == 0) blocks_[b].box = BBox::Empty();
    Set(size_, s);
    ++size_;
  }

  /// Removes lane i by moving the last lane, whose segment is `last`,
  /// into it (the swap-erase mirror). Padded tail lanes keep stale values;
  /// they are never read.
  void SwapRemove(size_t i, const Segment& last) {
    const size_t end = size_ - 1;
    if (i != end) {
      CopyLane(end, i);
      SegmentGeomBlock& dst = blocks_[i / kDistLanes];
      dst.box.Extend(last.a);
      dst.box.Extend(last.b);
    }
    --size_;
  }

  /// Reserves block capacity for `n` lanes (bulk-build pre-sizing).
  void Reserve(size_t n) {
    blocks_.reserve((n + kDistLanes - 1) / kDistLanes);
  }

 private:
  void Set(size_t i, const Segment& s) {
    SegmentGeomBlock& blk = blocks_[i / kDistLanes];
    const size_t lane = i % kDistLanes;
    blk.ax[lane] = s.a.x;
    blk.ay[lane] = s.a.y;
    const double dx = s.b.x - s.a.x;
    const double dy = s.b.y - s.a.y;
    blk.dx[lane] = dx;
    blk.dy[lane] = dy;
    blk.inv_len2[lane] = SegmentInvLen2(dx, dy);
    blk.box.Extend(s.a);
    blk.box.Extend(s.b);
  }

  void CopyLane(size_t from, size_t to) {
    const SegmentGeomBlock& src = blocks_[from / kDistLanes];
    SegmentGeomBlock& dst = blocks_[to / kDistLanes];
    const size_t fl = from % kDistLanes;
    const size_t tl = to % kDistLanes;
    dst.ax[tl] = src.ax[fl];
    dst.ay[tl] = src.ay[fl];
    dst.dx[tl] = src.dx[fl];
    dst.dy[tl] = src.dy[fl];
    dst.inv_len2[tl] = src.inv_len2[fl];
  }

  std::vector<SegmentGeomBlock> blocks_;
  size_t size_ = 0;
};

}  // namespace frt

#endif  // FRT_GEO_SEGMENT_SOA_H_
