#include "runtime/window_audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "geo/morton.h"
#include "geo/segment_soa.h"

namespace frt {

namespace {

/// Distinct coordinates searched by one pool task in the search step.
constexpr size_t kQueriesPerTask = 256;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

size_t HashBits(uint64_t x, uint64_t y) {
  uint64_t h = (x * 0x9e3779b97f4a7c15ull) ^ y;
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

/// Table capacity for `n` keys: a power of two, at most two-thirds full.
size_t CapacityFor(size_t n) {
  size_t capacity = 16;
  while (capacity < n + n / 2) capacity *= 2;
  return capacity;
}

/// Runs task(i) for i in [0, n) on `pool`, or in order on this thread.
template <typename Task>
void RunTasks(WorkStealingPool* pool, size_t n, const Task& task) {
  if (pool != nullptr) {
    pool->Run(n, task);
  } else {
    for (size_t i = 0; i < n; ++i) task(i);
  }
}

/// Stable LSD radix sort of `order` by its high 32 bits, one 8-bit digit
/// per pass. Values with equal high bits keep their relative order.
void SortByHighWord(std::vector<uint64_t>* order) {
  std::vector<uint64_t> scratch(order->size());
  for (int shift = 32; shift < 64; shift += 8) {
    size_t next[257] = {};
    for (const uint64_t v : *order) ++next[((v >> shift) & 0xff) + 1];
    for (size_t d = 1; d < 257; ++d) next[d] += next[d - 1];
    for (const uint64_t v : *order) scratch[next[(v >> shift) & 0xff]++] = v;
    order->swap(scratch);
  }
}

/// The original segments of one part as a static packed tree. The leaves
/// are 8-lane blocks of SoA geometry (geo/segment_soa.h) written straight
/// from the trajectories in Morton order of the segment midpoints, so each
/// block is spatially tight; the last block is padded with copies of its
/// last live lane, which leave every minimum unchanged. Above them sits
/// one contiguous box array per level: level 0 holds each block's box,
/// and each box of the next level bounds eight boxes of the one below, up
/// to one root box. A search reads a block's lanes only after its box
/// passed, so the boxes it tests sit side by side in memory.
///
/// Nearest lowers a squared threshold to the smallest kernel distance² of
/// any segment below it. Children are visited nearest box first, and a
/// subtree is skipped when BoxBeyond says none of its lanes can reach the
/// threshold — the exactness argument of the blocks applies to every
/// level, since each box holds all the lanes beneath it. A lane whose
/// kernel is NaN (non-finite geometry) never compares below the threshold,
/// so it never counts. The result is the minimum over the lanes whatever
/// the visiting order or the starting threshold.
class SegmentTree {
 public:
  SegmentTree(const Dataset& original, ShardRange range) {
    const std::vector<Trajectory>& trajs = original.trajectories();
    // starts[h]: segment h's start point, in input order; the next point
    // of the same trajectory is its end.
    std::vector<const TimedPoint*> starts;
    BBox region = BBox::Empty();
    for (size_t t = range.begin; t < range.end; ++t) {
      const std::vector<TimedPoint>& points = trajs[t].points();
      for (size_t i = 0; i + 1 < points.size(); ++i) {
        starts.push_back(&points[i]);
        region.Extend(points[i].p);
      }
      if (points.size() >= 2) region.Extend(points.back().p);
    }
    lanes_ = starts.size();
    if (lanes_ == 0) return;
    // (key << 32 | handle), pushed in handle order: a stable sort on the
    // key orders by key, then input order. Handles fit 32 bits (2^32
    // segments would be ~200 GB of input).
    const auto segment = [&](size_t h) {
      return Segment{starts[h]->p, starts[h][1].p};
    };
    std::vector<uint64_t> order(lanes_);
    for (size_t h = 0; h < lanes_; ++h) {
      order[h] = (uint64_t{MortonKey(segment(h), region)} << 32) | h;
    }
    SortByHighWord(&order);
    geom_.Reserve(lanes_ + kDistLanes - 1);
    for (const uint64_t key : order) geom_.PushBack(segment(key & 0xffffffffu));
    const Segment last = segment(order.back() & 0xffffffffu);
    while (geom_.size() % kDistLanes != 0) geom_.PushBack(last);

    std::vector<BBox> blocks(geom_.size() / kDistLanes);
    for (size_t b = 0; b < blocks.size(); ++b) blocks[b] = geom_.block(b).box;
    levels_.push_back(std::move(blocks));
    while (levels_.back().size() > 1) {
      const std::vector<BBox>& below = levels_.back();
      std::vector<BBox> level((below.size() + kFanOut - 1) / kFanOut);
      for (size_t c = 0; c < below.size(); ++c) {
        level[c / kFanOut].Extend(below[c]);
      }
      levels_.push_back(std::move(level));
    }
  }

  bool empty() const { return lanes_ == 0; }

  /// Lowers *best2 to the smallest kernel distance² from q to a segment
  /// of the tree when that is below it, adding the live lanes the kernel
  /// evaluated to *evals.
  void Nearest(const Point& q, double* best2, uint64_t* evals) const {
    if (empty() || BoxBeyond(q, levels_.back()[0], *best2)) return;
    Descend(q, levels_.size() - 1, 0, best2, evals);
  }

 private:
  static constexpr size_t kFanOut = 8;

  /// Searches below box `node` of `level`, whose box has passed.
  void Descend(const Point& q, size_t level, size_t node, double* best2,
               uint64_t* evals) const {
    if (level == 0) {
      double d2[kDistLanes];
      PointSegmentDistance2Batch(q, geom_.block(node), d2);
      *evals += std::min(kDistLanes, lanes_ - node * kDistLanes);
      double best = *best2;
      for (const double d : d2) best = d < best ? d : best;
      *best2 = best;
      return;
    }
    // Children by MINdist to their boxes, nearest first (insertion sort).
    const std::vector<BBox>& below = levels_[level - 1];
    const size_t first = node * kFanOut;
    const size_t n = std::min(kFanOut, below.size() - first);
    size_t child[kFanOut];
    double dist2[kFanOut];
    for (size_t i = 0; i < n; ++i) {
      const double d = MinDist2PointBBox(q, below[first + i]);
      size_t j = i;
      for (; j > 0 && d < dist2[j - 1]; --j) {
        child[j] = child[j - 1];
        dist2[j] = dist2[j - 1];
      }
      child[j] = first + i;
      dist2[j] = d;
    }
    for (size_t i = 0; i < n; ++i) {
      if (BoxBeyond(q, below[child[i]], *best2)) continue;
      Descend(q, level - 1, child[i], best2, evals);
    }
  }

  SegmentGeomSoA geom_;
  size_t lanes_ = 0;
  /// levels_[0]: the blocks' boxes; levels_.back(): the root box alone.
  std::vector<std::vector<BBox>> levels_;
};

/// The vertex table: an open-addressed set (linear probing, at most
/// two-thirds full, one flat array) of the original vertices where a
/// segment's distance kernel evaluates to exactly 0: the start point `a`
/// of every segment of `original` trajectories [range) whose kernel is
/// defined there — finite a, finite d = b - a and a finite SegmentInvLen2
/// (a subnormal length² makes it inf, and 0 * inf is NaN) — and each
/// trajectory's last vertex `b` when PointSegmentDistance2(b, last
/// segment) is exactly 0.0 (the kernel's t may round below 1 there, so
/// this is checked, not assumed). Keys compare with Point's operator==,
/// so -0.0 and 0.0 are one key; a NaN x marks an empty slot. 16 B per
/// slot, at most 3 slots per key, and at most one key per segment plus
/// one per trajectory.
class VertexTable {
 public:
  VertexTable(const Dataset& original, ShardRange range) {
    size_t keys = 0;
    for (size_t t = range.begin; t < range.end; ++t) {
      const size_t segments = original[t].NumSegments();
      keys += segments + (segments > 0 ? 1 : 0);
    }
    const size_t capacity = CapacityFor(keys);
    slots_.assign(capacity, Point{kEmpty, kEmpty});
    mask_ = capacity - 1;
    for (size_t t = range.begin; t < range.end; ++t) {
      const size_t segments = original[t].NumSegments();
      for (size_t i = 0; i < segments; ++i) {
        const Segment s = original[t].SegmentAt(i);
        const double dx = s.b.x - s.a.x;
        const double dy = s.b.y - s.a.y;
        if (std::isfinite(s.a.x) && std::isfinite(s.a.y) &&
            std::isfinite(dx) && std::isfinite(dy) &&
            std::isfinite(SegmentInvLen2(dx, dy))) {
          Insert(s.a);
        }
      }
      if (segments > 0) {
        const Segment last = original[t].SegmentAt(segments - 1);
        if (PointSegmentDistance2(last.b, last) == 0.0) Insert(last.b);
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

  static size_t Hash(const Point& p) {
    // -0.0 + 0.0 == +0.0, so equal keys hash alike.
    return HashBits(Bits(p.x + 0.0), Bits(p.y + 0.0));
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

/// The distinct coordinates to search: an open-addressed map (linear
/// probing, at most two-thirds full) from a coordinate's bit pattern to
/// its index in `queries()`. Bit-pattern keys make -0.0 and 0.0 two keys,
/// and each is searched as given.
class QueryTable {
 public:
  explicit QueryTable(size_t max_keys) {
    const size_t capacity = CapacityFor(max_keys);
    slots_.assign(capacity, kNone);
    mask_ = capacity - 1;
    queries_.reserve(max_keys);
  }

  /// Index of `q` in queries(), appended on first sight.
  uint32_t Intern(const Point& q) {
    const uint64_t x = Bits(q.x);
    const uint64_t y = Bits(q.y);
    for (size_t i = HashBits(x, y) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == kNone) {
        queries_.push_back(q);
        return slots_[i] = static_cast<uint32_t>(queries_.size() - 1);
      }
      const Point& held = queries_[slots_[i]];
      if (Bits(held.x) == x && Bits(held.y) == y) return slots_[i];
    }
  }

  const std::vector<Point>& queries() const { return queries_; }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  std::vector<Point> queries_;
};

/// A point left to search, with the live part its trajectory came from
/// (searched first).
struct Searched {
  Point p;
  uint32_t home;
};

/// One published range through the three steps: the vertex hits and the
/// points left to search (step 1), then each of those points' index into
/// the distinct coordinates (step 2).
struct RangeScan {
  uint64_t vertex_hits = 0;
  std::vector<Searched> searched;
  std::vector<uint32_t> query_of;
};

}  // namespace

struct WindowAuditPart::State {
  ShardRange range;
  SegmentTree tree;
  VertexTable vertices;
  double build_seconds = 0.0;
};

WindowAuditPart::WindowAuditPart() = default;
WindowAuditPart::~WindowAuditPart() = default;
WindowAuditPart::WindowAuditPart(WindowAuditPart&&) noexcept = default;
WindowAuditPart& WindowAuditPart::operator=(WindowAuditPart&&) noexcept =
    default;

WindowAuditPart::WindowAuditPart(const Dataset& original, ShardRange range,
                                 const WindowAuditConfig& /*config*/) {
  Stopwatch build_watch;
  // The tree's build buffers are freed before the table allocates.
  SegmentTree tree(original, range);
  state_.reset(new State{range, std::move(tree), VertexTable(original, range),
                         0.0});
  state_->build_seconds = build_watch.ElapsedSeconds();
}

WindowAuditReport RunWindowAudit(Span<const WindowAuditPart> parts,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool) {
  WindowAuditReport report;
  if (!config.enabled || published.empty()) return report;
  // The parts that hold segments; the others can neither hit nor answer.
  std::vector<const WindowAuditPart::State*> live;
  size_t original_size = 0;
  for (const WindowAuditPart& part : parts) {
    const WindowAuditPart::State* state = part.state_.get();
    if (state == nullptr) continue;
    report.build_seconds += state->build_seconds;
    original_size += state->range.size();
    if (!state->tree.empty()) live.push_back(state);
  }
  if (live.empty()) return report;

  // A release that keeps the input's trajectories in order (as every FRT
  // release does) maps published trajectory t to the part whose range
  // holds t: most of its points are that part's vertices, or lie nearest
  // its segments, so that part is checked and searched first. Otherwise
  // (or when t's part holds no segment) parts go in order.
  const bool own_first = published.size() == original_size;
  const auto home_of = [&](size_t t) -> uint32_t {
    for (uint32_t i = 0; own_first && i < live.size(); ++i) {
      if (live[i]->range.begin <= t && t < live[i]->range.end) return i;
    }
    return 0;
  };

  // Step 1: classify each range's points against the vertex tables, the
  // home part's first.
  const std::vector<ShardRange> ranges =
      PlanShards(published.size(), config.ranges);
  std::vector<RangeScan> scans(ranges.size());
  RunTasks(pool, ranges.size(), [&](size_t r) {
    RangeScan& scan = scans[r];
    for (size_t t = ranges[r].begin; t < ranges[r].end; ++t) {
      const uint32_t home = home_of(t);
      for (const TimedPoint& tp : published[t].points()) {
        bool hit = live[home]->vertices.Contains(tp.p);
        for (uint32_t i = 0; !hit && i < live.size(); ++i) {
          hit = i != home && live[i]->vertices.Contains(tp.p);
        }
        if (hit) {
          ++scan.vertex_hits;
        } else {
          scan.searched.push_back({tp.p, home});
        }
      }
    }
  });

  // Step 2: intern the searched points across all ranges (a coordinate
  // keeps the home of its first point), then search each distinct
  // coordinate once: its home part first, then the others, each from the
  // best distance² so far.
  size_t searched = 0;
  for (const RangeScan& scan : scans) searched += scan.searched.size();
  QueryTable table(searched);
  std::vector<uint32_t> homes;
  homes.reserve(searched);
  for (RangeScan& scan : scans) {
    scan.query_of.reserve(scan.searched.size());
    for (const Searched& s : scan.searched) {
      const uint32_t q = table.Intern(s.p);
      if (q == homes.size()) homes.push_back(s.home);
      scan.query_of.push_back(q);
    }
    std::vector<Searched>().swap(scan.searched);
  }
  const std::vector<Point>& queries = table.queries();
  // Tasks take the coordinates in Morton order, so consecutive searches
  // walk the same paths of the trees.
  BBox extent = BBox::Empty();
  for (const Point& p : queries) extent.Extend(p);
  std::vector<uint64_t> order(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    order[q] =
        (uint64_t{MortonKey(Segment{queries[q], queries[q]}, extent)} << 32) |
        q;
  }
  SortByHighWord(&order);
  std::vector<double> results(queries.size());
  const size_t tasks = (queries.size() + kQueriesPerTask - 1) /
                       kQueriesPerTask;
  std::vector<uint64_t> task_evals(tasks, 0);
  RunTasks(pool, tasks, [&](size_t task) {
    const size_t end = std::min(queries.size(), (task + 1) * kQueriesPerTask);
    for (size_t i = task * kQueriesPerTask; i < end; ++i) {
      const size_t q = order[i] & 0xffffffffu;
      const Point& p = queries[q];
      // Every kernel distance from a NaN coordinate is NaN.
      if (std::isnan(p.x) || std::isnan(p.y)) {
        results[q] = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      double best2 = std::numeric_limits<double>::infinity();
      live[homes[q]]->tree.Nearest(p, &best2, &task_evals[task]);
      for (uint32_t i = 0; i < live.size(); ++i) {
        if (i != homes[q]) live[i]->tree.Nearest(p, &best2, &task_evals[task]);
      }
      results[q] = std::sqrt(best2);
    }
  });
  for (const uint64_t evals : task_evals) report.distance_evaluations += evals;

  // Step 3: each range sums its points in order, and the ranges merge in
  // range order, so every aggregate is independent of the scheduling.
  report.ran = true;
  for (const RangeScan& scan : scans) {
    double sum = 0.0;
    double max = 0.0;
    for (const uint32_t q : scan.query_of) {
      sum += results[q];
      max = std::max(max, results[q]);
    }
    report.points_audited += scan.vertex_hits + scan.query_of.size();
    report.vertex_hits += scan.vertex_hits;
    report.mean_displacement += sum;
    report.max_displacement = std::max(report.max_displacement, max);
  }
  if (report.points_audited > 0) {
    report.mean_displacement /= static_cast<double>(report.points_audited);
  }
  return report;
}

WindowAuditReport RunWindowAudit(const Dataset& original,
                                 const Dataset& published,
                                 const WindowAuditConfig& config,
                                 WorkStealingPool* pool) {
  if (!config.enabled || original.empty() || published.empty()) return {};
  const WindowAuditPart part(original, ShardRange{0, original.size()},
                             config);
  return RunWindowAudit(Span<const WindowAuditPart>(&part, 1), published,
                        config, pool);
}

}  // namespace frt
