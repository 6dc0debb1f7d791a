// Uniform and dyadic grid addressing over a rectangular region.
//
// The hierarchical grid index (paper §IV-C) uses dyadic levels: level L has
// 2^L x 2^L cells over the region, so level 0 is the single coarsest cell
// G_{r1} = 1x1 and level H-1 the finest (e.g. 512x512 for H = 10). A cell is
// addressed by (level, ix, iy); its parent at level-1 is (ix/2, iy/2) and
// its four children at level+1 are (2ix + {0,1}, 2iy + {0,1}).

#ifndef FRT_GEO_GRID_H_
#define FRT_GEO_GRID_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "geo/bbox.h"
#include "geo/point.h"

namespace frt {

/// \brief Address of a cell in a dyadic grid hierarchy.
struct CellCoord {
  int32_t level = 0;  // 0 = coarsest (1x1)
  int32_t ix = 0;
  int32_t iy = 0;

  friend bool operator==(const CellCoord& a, const CellCoord& b) {
    return a.level == b.level && a.ix == b.ix && a.iy == b.iy;
  }
  friend bool operator!=(const CellCoord& a, const CellCoord& b) {
    return !(a == b);
  }

  /// The enclosing cell one level coarser. Level 0 is its own parent.
  CellCoord Parent() const {
    if (level == 0) return *this;
    return CellCoord{level - 1, ix >> 1, iy >> 1};
  }

  /// The idx-th (0..3) sub-cell one level finer.
  CellCoord Child(int idx) const {
    return CellCoord{level + 1, (ix << 1) | (idx & 1), (iy << 1) | (idx >> 1)};
  }

  /// True when `other` lies inside this cell's subtree (any finer level).
  bool IsAncestorOf(const CellCoord& other) const {
    if (other.level < level) return false;
    const int shift = other.level - level;
    return (other.ix >> shift) == ix && (other.iy >> shift) == iy;
  }

  /// Packs (level, ix, iy) into a hashable 64-bit key. Levels <= 27.
  uint64_t Key() const {
    return (static_cast<uint64_t>(level) << 54) |
           (static_cast<uint64_t>(static_cast<uint32_t>(ix)) << 27) |
           static_cast<uint64_t>(static_cast<uint32_t>(iy));
  }
};

/// \brief Geometry of a dyadic grid hierarchy over a fixed region.
///
/// Immutable; shared by the uniform-grid and hierarchical-grid indexes and
/// by the location quantizer.
class GridSpec {
 public:
  GridSpec() = default;

  /// \param region   the covered area; points outside are clamped onto the
  ///                 boundary cells.
  /// \param levels   number of dyadic levels; finest grid is
  ///                 2^(levels-1) x 2^(levels-1).
  GridSpec(const BBox& region, int levels)
      : region_(region), levels_(std::max(1, levels)) {}

  const BBox& region() const { return region_; }
  int levels() const { return levels_; }
  int finest_level() const { return levels_ - 1; }

  /// Cells per side at `level`.
  int64_t Resolution(int level) const { return int64_t{1} << level; }

  /// Cell containing point p at `level` (clamped to the region).
  CellCoord CellAt(const Point& p, int level) const {
    const int64_t n = Resolution(level);
    const double w = std::max(region_.Width(), 1e-12);
    const double h = std::max(region_.Height(), 1e-12);
    int64_t ix = static_cast<int64_t>((p.x - region_.min_x) / w * n);
    int64_t iy = static_cast<int64_t>((p.y - region_.min_y) / h * n);
    ix = std::clamp<int64_t>(ix, 0, n - 1);
    iy = std::clamp<int64_t>(iy, 0, n - 1);
    return CellCoord{level, static_cast<int32_t>(ix),
                     static_cast<int32_t>(iy)};
  }

  /// Geographic coverage of a cell.
  BBox CellBox(const CellCoord& c) const {
    const int64_t n = Resolution(c.level);
    const double w = region_.Width() / static_cast<double>(n);
    const double h = region_.Height() / static_cast<double>(n);
    BBox b;
    b.min_x = region_.min_x + w * c.ix;
    b.min_y = region_.min_y + h * c.iy;
    b.max_x = b.min_x + w;
    b.max_y = b.min_y + h;
    return b;
  }

  /// \brief A box holding everything CellAt can assign to `c`: CellBox
  /// with each side that lies on the region's border opened to infinity.
  /// CellAt clamps points outside the region into the edge cells, so a
  /// segment with an endpoint outside can be registered in an edge cell
  /// it leaves; this box still contains it, which makes
  /// MinDist2PointBBox(q, CellBound(c)) a lower bound on the distance to
  /// anything registered in c's subtree.
  BBox CellBound(const CellCoord& c) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int32_t last = static_cast<int32_t>(Resolution(c.level) - 1);
    BBox b = CellBox(c);
    if (c.ix == 0) b.min_x = -kInf;
    if (c.iy == 0) b.min_y = -kInf;
    if (c.ix == last) b.max_x = kInf;
    if (c.iy == last) b.max_y = kInf;
    return b;
  }

  /// Center point of a cell; used to materialize cell-level outputs (DPT,
  /// AdaTrace, generalized baselines).
  Point CellCenter(const CellCoord& c) const { return CellBox(c).Center(); }

  /// \brief The best-fit cell of a segment (paper Definition 11): the finest
  /// cell that contains both endpoints, i.e. the deepest level at which the
  /// endpoints share a cell.
  CellCoord BestFitCell(const Point& a, const Point& b) const {
    CellCoord ca = CellAt(a, finest_level());
    CellCoord cb = CellAt(b, finest_level());
    while (ca != cb) {
      ca = ca.Parent();
      cb = cb.Parent();
    }
    return ca;
  }

 private:
  BBox region_;
  int levels_ = 1;
};

}  // namespace frt

namespace std {
template <>
struct hash<frt::CellCoord> {
  size_t operator()(const frt::CellCoord& c) const {
    uint64_t k = c.Key();
    // splitmix-style finalizer
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(k ^ (k >> 31));
  }
};
}  // namespace std

#endif  // FRT_GEO_GRID_H_
