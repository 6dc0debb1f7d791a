#include "runtime/window_audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "geo/morton.h"
#include "index/search_context.h"
#include "index/segment_index.h"

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

/// Index entries for every segment of `original` trajectories [range),
/// with handles numbered in input order but stored in Morton order of the
/// segment midpoints, so the residents of a cell — and with them each
/// 8-lane block — are spatially tight and block skipping prunes well. Only
/// (key, handle) pairs are sorted; the entries are materialized once,
/// already in order. Sets `*region` to the box of all segment endpoints.
std::vector<SegmentEntry> CollectEntries(const Dataset& original,
                                         ShardRange range, BBox* region) {
  const std::vector<Trajectory>& trajs = original.trajectories();
  // first[t]: handle of trajectory range.begin + t's first segment;
  // first.back(): total.
  std::vector<uint64_t> first(range.size() + 1, 0);
  *region = BBox::Empty();
  for (size_t t = 0; t < range.size(); ++t) {
    const Trajectory& traj = trajs[range.begin + t];
    const size_t segments = traj.NumSegments();
    first[t + 1] = first[t] + segments;
    for (size_t i = 0; i < segments; ++i) {
      const Segment s = traj.SegmentAt(i);
      region->Extend(s.a);
      region->Extend(s.b);
    }
  }
  // (key << 32 | handle), pushed in handle order: a stable sort on the key
  // orders by key, then input order. Handles fit 32 bits (2^32 segments
  // would be ~200 GB of input).
  std::vector<uint64_t> order;
  order.reserve(first.back());
  for (size_t t = 0; t < range.size(); ++t) {
    const Trajectory& traj = trajs[range.begin + t];
    for (size_t i = 0; i < traj.NumSegments(); ++i) {
      const uint64_t key = MortonKey(traj.SegmentAt(i), *region);
      order.push_back((key << 32) | (first[t] + i));
    }
  }
  SortByHighWord(&order);

  std::vector<SegmentEntry> entries;
  entries.reserve(order.size());
  for (const uint64_t key : order) {
    const SegmentHandle handle = key & 0xffffffffu;
    const size_t t = static_cast<size_t>(
        std::upper_bound(first.begin(), first.end(), handle) -
        first.begin() - 1);
    const Trajectory& traj = trajs[range.begin + t];
    entries.push_back(
        SegmentEntry{handle, traj.id(), traj.SegmentAt(handle - first[t])});
  }
  return entries;
}

/// The vertex table: an open-addressed set (linear probing, at most
/// two-thirds full, one flat array) of the original vertices where a
/// segment's distance kernel evaluates to exactly 0: the start point `a`
/// of every segment of `original` trajectories [range) whose kernel is
/// defined there — finite a, finite d = b - a and a finite SegmentInvLen2
/// (a subnormal length² makes it inf, and 0 * inf is NaN) — and each
/// trajectory's last vertex `b` when PointSegmentDistance2(b, last
/// segment) is exactly 0.0 (the kernel's t may round below 1 there, so
/// this is checked, not assumed). Keys compare with Point's operator==,
/// so -0.0 and 0.0 are one key; a NaN x marks an empty slot. Sized below
/// the part's entries (16 B per slot, at most 3 slots per key and at most
/// one key per segment plus one per trajectory, vs a 48 B entry per
/// segment), which are freed first.
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

  /// Index of `q` in queries(), appended on first sight. A point with a
  /// NaN coordinate is appended every time.
  uint32_t Intern(const Point& q) {
    if (std::isnan(q.x) || std::isnan(q.y)) return Append(q);
    const uint64_t x = Bits(q.x);
    const uint64_t y = Bits(q.y);
    for (size_t i = HashBits(x, y) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == kNone) return slots_[i] = Append(q);
      const Point& held = queries_[slots_[i]];
      if (Bits(held.x) == x && Bits(held.y) == y) return slots_[i];
    }
  }

  const std::vector<Point>& queries() const { return queries_; }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  uint32_t Append(const Point& q) {
    queries_.push_back(q);
    return static_cast<uint32_t>(queries_.size() - 1);
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  std::vector<Point> queries_;
};

/// One published range through the three steps: the vertex hits and the
/// points left to search (step 1), then each of those points' index into
/// the distinct coordinates (step 2).
struct RangeScan {
  uint64_t vertex_hits = 0;
  std::vector<Point> searched;
  std::vector<uint32_t> query_of;
};

/// The nearest-segment distance of one distinct coordinate; found=false
/// when no part returned a hit.
struct QueryResult {
  double dist = 0.0;
  bool found = false;
};

}  // namespace

struct WindowAuditPart::State {
  /// Null when the range holds no segment.
  std::unique_ptr<SegmentIndex> index;
  VertexTable vertices;
  Status built;
  double build_seconds = 0.0;
};

WindowAuditPart::WindowAuditPart() = default;
WindowAuditPart::~WindowAuditPart() = default;
WindowAuditPart::WindowAuditPart(WindowAuditPart&&) noexcept = default;
WindowAuditPart& WindowAuditPart::operator=(WindowAuditPart&&) noexcept =
    default;

WindowAuditPart::WindowAuditPart(const Dataset& original, ShardRange range,
                                 const WindowAuditConfig& config) {
  Stopwatch build_watch;
  BBox region;
  std::vector<SegmentEntry> entries =
      CollectEntries(original, range, &region);
  std::unique_ptr<SegmentIndex> index;
  Status built = Status::OK();
  if (!entries.empty()) {
    index = MakeSegmentIndex(config.strategy,
                             GridSpec(region, config.index_levels));
    built = index->Build(Span<const SegmentEntry>(entries));
  }
  // The index holds its own copies: free the entries before the table
  // allocates, so the two never coexist.
  std::vector<SegmentEntry>().swap(entries);
  state_.reset(new State{std::move(index), VertexTable(original, range),
                         std::move(built), 0.0});
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
  bool built = true;
  for (const WindowAuditPart& part : parts) {
    const WindowAuditPart::State* state = part.state_.get();
    if (state == nullptr) continue;
    report.build_seconds += state->build_seconds;
    built = built && state->built.ok();
    if (state->index != nullptr) live.push_back(state);
  }
  if (!built || live.empty()) return report;

  // Step 1: classify each range's points against every vertex table.
  const std::vector<ShardRange> ranges =
      PlanShards(published.size(), config.ranges);
  std::vector<RangeScan> scans(ranges.size());
  RunTasks(pool, ranges.size(), [&](size_t r) {
    RangeScan& scan = scans[r];
    for (size_t t = ranges[r].begin; t < ranges[r].end; ++t) {
      for (const TimedPoint& tp : published[t].points()) {
        const bool hit = std::any_of(
            live.begin(), live.end(),
            [&](const WindowAuditPart::State* s) {
              return s->vertices.Contains(tp.p);
            });
        if (hit) {
          ++scan.vertex_hits;
        } else {
          scan.searched.push_back(tp.p);
        }
      }
    }
  });

  // Step 2: intern the searched points across all ranges, then search
  // each distinct coordinate once, in every part.
  size_t searched = 0;
  for (const RangeScan& scan : scans) searched += scan.searched.size();
  QueryTable table(searched);
  for (RangeScan& scan : scans) {
    scan.query_of.reserve(scan.searched.size());
    for (const Point& p : scan.searched) {
      scan.query_of.push_back(table.Intern(p));
    }
    std::vector<Point>().swap(scan.searched);
  }
  const std::vector<Point>& queries = table.queries();
  std::vector<QueryResult> results(queries.size());
  uint64_t evals_before = 0;
  for (const WindowAuditPart::State* s : live) {
    evals_before += s->index->distance_evaluations();
  }
  const size_t tasks = (queries.size() + kQueriesPerTask - 1) /
                       kQueriesPerTask;
  RunTasks(pool, tasks, [&](size_t task) {
    SearchOptions options;
    options.k = 1;
    options.group_by = GroupBy::kSegment;
    SearchContext ctx;
    const size_t end = std::min(queries.size(), (task + 1) * kQueriesPerTask);
    for (size_t q = task * kQueriesPerTask; q < end; ++q) {
      QueryResult& result = results[q];
      for (const WindowAuditPart::State* s : live) {
        const Span<const Neighbor> hits =
            s->index->KNearest(queries[q], options, &ctx);
        if (hits.empty()) continue;
        // A NaN distance (a NaN query) is never replaced, as in one index.
        if (!result.found || hits[0].dist < result.dist) {
          result.dist = hits[0].dist;
        }
        result.found = true;
      }
    }
  });
  for (const WindowAuditPart::State* s : live) {
    report.distance_evaluations += s->index->distance_evaluations();
  }
  report.distance_evaluations -= evals_before;

  // Step 3: each range sums its points in order, and the ranges merge in
  // range order, so every aggregate is independent of the scheduling.
  report.ran = true;
  for (const RangeScan& scan : scans) {
    uint64_t points = scan.vertex_hits;
    double sum = 0.0;
    double max = 0.0;
    for (const uint32_t q : scan.query_of) {
      if (!results[q].found) continue;
      ++points;
      sum += results[q].dist;
      max = std::max(max, results[q].dist);
    }
    report.points_audited += points;
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
