// Morton (Z-order) keys of segment midpoints.
//
// Bulk-built segment indexes store their entries in Z-order of the segment
// midpoints over the index region: consecutive entries are then spatially
// close, so each cell's 8-lane blocks (geo/segment_soa.h) have tight boxes
// and a search skips most blocks of the coarse cells it must visit. Both
// bulk builds that are ordered this way — the window audit's index over the
// original segments and the global edit's index over the whole dataset —
// use this one key.

#ifndef FRT_GEO_MORTON_H_
#define FRT_GEO_MORTON_H_

#include <algorithm>
#include <cstdint>

#include "geo/bbox.h"
#include "geo/segment.h"

namespace frt {

/// Interleaves the low 16 bits of v with zeros (bit i -> bit 2i).
inline uint32_t SpreadBits(uint32_t v) {
  v &= 0xffffu;
  v = (v | (v << 8)) & 0x00ff00ffu;
  v = (v | (v << 4)) & 0x0f0f0f0fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

/// Z-order key of a segment's midpoint on a 2^16 x 2^16 lattice over
/// `region`. Midpoints outside the region are clamped onto its border.
inline uint32_t MortonKey(const Segment& s, const BBox& region) {
  const auto lattice = [](double v, double lo, double span) {
    const double f = span > 0.0 ? (v - lo) / span : 0.0;
    return static_cast<uint32_t>(std::clamp(f, 0.0, 1.0) * 65535.0);
  };
  const uint32_t x =
      lattice(0.5 * (s.a.x + s.b.x), region.min_x, region.Width());
  const uint32_t y =
      lattice(0.5 * (s.a.y + s.b.y), region.min_y, region.Height());
  return SpreadBits(x) | (SpreadBits(y) << 1);
}

}  // namespace frt

#endif  // FRT_GEO_MORTON_H_
