#include "runtime/window_audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "index/search_context.h"
#include "index/segment_index.h"

namespace frt {

namespace {

/// Per-range partial aggregate; merged in range order so the report is a
/// pure function of the datasets and the range count.
struct RangePartial {
  uint64_t points = 0;
  uint64_t vertex_hits = 0;
  double sum = 0.0;
  double max = 0.0;
};

/// Interleaves the low 16 bits of v with zeros (bit i -> bit 2i).
uint32_t SpreadBits(uint32_t v) {
  v &= 0xffffu;
  v = (v | (v << 8)) & 0x00ff00ffu;
  v = (v | (v << 4)) & 0x0f0f0f0fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

/// Z-order key of a segment's midpoint on a 2^16 x 2^16 lattice over
/// `region`.
uint32_t MortonKey(const Segment& s, const BBox& region) {
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

/// Index entries for every segment of `original`, with handles numbered
/// in input order but stored in Morton order of the segment midpoints, so
/// the residents of a cell — and with them each 8-lane block — are
/// spatially tight and block skipping prunes well. Only (key, handle)
/// pairs are sorted; the entries are materialized once, already in order.
/// Sets `*region` to the box of all segment endpoints.
std::vector<SegmentEntry> CollectEntries(const Dataset& original,
                                         BBox* region) {
  const std::vector<Trajectory>& trajs = original.trajectories();
  // first[t]: handle of trajectory t's first segment; first.back(): total.
  std::vector<uint64_t> first(trajs.size() + 1, 0);
  *region = BBox::Empty();
  for (size_t t = 0; t < trajs.size(); ++t) {
    const size_t segments = trajs[t].NumSegments();
    first[t + 1] = first[t] + segments;
    for (size_t i = 0; i < segments; ++i) {
      const Segment s = trajs[t].SegmentAt(i);
      region->Extend(s.a);
      region->Extend(s.b);
    }
  }
  // (key << 32 | handle): one integer sort orders by key, then input
  // order. Handles fit 32 bits (2^32 segments would be ~200 GB of input).
  std::vector<uint64_t> order;
  order.reserve(first.back());
  for (size_t t = 0; t < trajs.size(); ++t) {
    for (size_t i = 0; i < trajs[t].NumSegments(); ++i) {
      const uint64_t key = MortonKey(trajs[t].SegmentAt(i), *region);
      order.push_back((key << 32) | (first[t] + i));
    }
  }
  std::sort(order.begin(), order.end());

  std::vector<SegmentEntry> entries;
  entries.reserve(order.size());
  for (const uint64_t key : order) {
    const SegmentHandle handle = key & 0xffffffffu;
    const size_t t = static_cast<size_t>(
        std::upper_bound(first.begin(), first.end(), handle) -
        first.begin() - 1);
    entries.push_back(SegmentEntry{
        handle, trajs[t].id(), trajs[t].SegmentAt(handle - first[t])});
  }
  return entries;
}

/// The vertex table: an open-addressed set (linear probing, at most
/// two-thirds full, one flat array) of the start points `a` of every
/// segment of `original` whose distance kernel evaluates to exactly 0 at
/// `a` — finite a, finite d = b - a and a finite SegmentInvLen2 (a
/// subnormal length² makes it inf, and 0 * inf is NaN). Keys compare with
/// Point's operator==, so -0.0 and 0.0 are one key; a NaN x marks an
/// empty slot. Sized below the audit's entries (16 B per slot, at most
/// 3 slots per segment vs a 48 B entry), which are freed first.
class VertexTable {
 public:
  explicit VertexTable(const Dataset& original) {
    size_t segments = 0;
    for (const Trajectory& t : original.trajectories()) {
      segments += t.NumSegments();
    }
    size_t capacity = 16;
    while (capacity < segments + segments / 2) capacity *= 2;
    slots_.assign(capacity, Point{kEmpty, kEmpty});
    mask_ = capacity - 1;
    for (const Trajectory& t : original.trajectories()) {
      for (size_t i = 0; i < t.NumSegments(); ++i) {
        const Segment s = t.SegmentAt(i);
        const double dx = s.b.x - s.a.x;
        const double dy = s.b.y - s.a.y;
        if (std::isfinite(s.a.x) && std::isfinite(s.a.y) &&
            std::isfinite(dx) && std::isfinite(dy) &&
            std::isfinite(SegmentInvLen2(dx, dy))) {
          Insert(s.a);
        }
      }
    }
  }

  bool Contains(const Point& q) const {
    for (size_t i = Hash(q) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == q) return true;
      if (std::isnan(slots_[i].x)) return false;
    }
  }

 private:
  static constexpr double kEmpty = std::numeric_limits<double>::quiet_NaN();

  static uint64_t Bits(double v) {
    v += 0.0;  // -0.0 + 0.0 == +0.0, so equal keys hash alike
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  static size_t Hash(const Point& p) {
    uint64_t h = (Bits(p.x) * 0x9e3779b97f4a7c15ull) ^ Bits(p.y);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }

  void Insert(const Point& a) {
    for (size_t i = Hash(a) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == a) return;
      if (std::isnan(slots_[i].x)) {
        slots_[i] = a;
        return;
      }
    }
  }

  std::vector<Point> slots_;
  size_t mask_ = 0;
};

/// Sweeps published trajectories [begin, end), k=1: a point in `vertices`
/// is exactly 0 from its segment, every other point is searched.
void SweepRange(const Dataset& published, size_t begin, size_t end,
                const VertexTable& vertices, const SegmentIndex& index,
                SearchContext* ctx, RangePartial* out) {
  SearchOptions options;
  options.k = 1;
  options.group_by = GroupBy::kSegment;
  for (size_t t = begin; t < end; ++t) {
    for (const TimedPoint& tp : published[t].points()) {
      if (vertices.Contains(tp.p)) {
        ++out->points;
        ++out->vertex_hits;
        continue;
      }
      const Span<const Neighbor> hits = index.KNearest(tp.p, options, ctx);
      if (hits.empty()) continue;
      ++out->points;
      out->sum += hits[0].dist;
      out->max = std::max(out->max, hits[0].dist);
    }
  }
}

}  // namespace

WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool) {
  WindowAuditReport report;
  if (!config.enabled || original.empty() || published.empty()) {
    return report;
  }

  // One build, every worker reads it through its own context.
  Stopwatch build_watch;
  BBox region;
  std::vector<SegmentEntry> entries = CollectEntries(original, &region);
  if (entries.empty()) return report;
  std::unique_ptr<SegmentIndex> index =
      MakeSegmentIndex(config.strategy, GridSpec(region, config.index_levels));
  const Status built = index->Build(Span<const SegmentEntry>(entries));
  // The index holds its own copies: free the entries before the table
  // allocates, so the two never coexist.
  std::vector<SegmentEntry>().swap(entries);
  const VertexTable vertices(original);
  report.build_seconds = build_watch.ElapsedSeconds();
  if (!built.ok()) return report;

  // Fixed range split (independent of worker count): contiguous
  // trajectory ranges, remainder spread over the leading ranges.
  const size_t n = published.size();
  const size_t ranges =
      std::clamp<size_t>(static_cast<size_t>(config.ranges), 1, n);
  std::vector<RangePartial> partials(ranges);
  const size_t base = n / ranges;
  const size_t extra = n % ranges;
  const auto range_task = [&](size_t r) {
    const size_t begin = r * base + std::min(r, extra);
    const size_t end = begin + base + (r < extra ? 1 : 0);
    SearchContext ctx;
    SweepRange(published, begin, end, vertices, *index, &ctx, &partials[r]);
  };
  if (pool != nullptr) {
    pool->Run(ranges, range_task);
  } else {
    for (size_t r = 0; r < ranges; ++r) range_task(r);
  }

  // Fixed-order merge: every aggregate below is independent of worker
  // scheduling.
  report.ran = true;
  report.distance_evaluations = index->distance_evaluations();
  for (const RangePartial& p : partials) {
    report.points_audited += p.points;
    report.vertex_hits += p.vertex_hits;
    report.mean_displacement += p.sum;
    report.max_displacement = std::max(report.max_displacement, p.max);
  }
  if (report.points_audited > 0) {
    report.mean_displacement /= static_cast<double>(report.points_audited);
  }
  return report;
}

}  // namespace frt
