// Line segments and the point-segment distance of paper Equation (3).

#ifndef FRT_GEO_SEGMENT_H_
#define FRT_GEO_SEGMENT_H_

#include <algorithm>

#include "geo/point.h"

namespace frt {

/// \brief A directed line segment <a, b>.
struct Segment {
  Point a;
  Point b;

  double Length() const { return Distance(a, b); }
  Point Midpoint() const { return Lerp(a, b, 0.5); }
};

/// \brief Closest point on segment s to query point q (paper Eq. 3 argmin).
inline Point ClosestPointOnSegment(const Point& q, const Segment& s) {
  const Point d = s.b - s.a;
  const double len2 = d.Norm2();
  if (len2 <= 0.0) return s.a;  // degenerate segment
  double t = ((q.x - s.a.x) * d.x + (q.y - s.a.y) * d.y) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return Lerp(s.a, s.b, t);
}

/// \brief Reciprocal of the squared segment length, the precomputed factor
/// of the distance kernel below. 0 for degenerate segments (which forces
/// t = 0, i.e. distance to endpoint a).
inline double SegmentInvLen2(double dx, double dy) {
  const double len2 = dx * dx + dy * dy;
  return len2 > 0.0 ? 1.0 / len2 : 0.0;
}

/// \brief The point-segment squared-distance kernel over precomputed
/// components: r = q - a, t = clamp((r·d) · inv_len2, 0, 1), e = r - d·t,
/// dist² = e·e.
///
/// This exact operation sequence is the single source of truth for Eq. (3)
/// distances everywhere a search compares or reports them: the linear and
/// uniform-grid indexes evaluate it through PointSegmentDistance2, and the
/// hierarchical grid's batched SoA kernel (geo/segment_soa.h) evaluates it
/// verbatim per lane (multiply by the precomputed reciprocal, never
/// divide). So every batched lane equals PointSegmentDistance2 bit for bit
/// and the cross-strategy equivalence contract holds exactly, not
/// approximately. The project builds with -ffp-contract=off so the
/// compiler cannot fuse differently between the scalar and
/// auto-vectorized instantiations.
inline double PointSegmentDistance2Kernel(double qx, double qy, double ax,
                                          double ay, double dx, double dy,
                                          double inv_len2) {
  const double rx = qx - ax;
  const double ry = qy - ay;
  double t = (rx * dx + ry * dy) * inv_len2;
  t = t < 0.0 ? 0.0 : t;
  t = t > 1.0 ? 1.0 : t;
  const double ex = rx - dx * t;
  const double ey = ry - dy * t;
  return ex * ex + ey * ey;
}

/// Squared point-segment distance (avoids the sqrt for comparisons).
inline double PointSegmentDistance2(const Point& q, const Segment& s) {
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  return PointSegmentDistance2Kernel(q.x, q.y, s.a.x, s.a.y, dx, dy,
                                     SegmentInvLen2(dx, dy));
}

/// \brief dist(q, s) = min over points p̄ on s of dist(q, p̄) — paper Eq. 3.
inline double PointSegmentDistance(const Point& q, const Segment& s) {
  return std::sqrt(PointSegmentDistance2(q, s));
}

}  // namespace frt

#endif  // FRT_GEO_SEGMENT_H_
