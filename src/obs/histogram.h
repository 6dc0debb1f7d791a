// Log-linear (HDR-style) latency histogram with bounded memory and
// bounded relative quantile error.
//
// Values are durations in milliseconds, recorded at 1 microsecond
// resolution into a fixed array of buckets whose width grows with the
// magnitude of the value: ticks below 2^kSubBucketBits land in unit-wide
// (exact) buckets; above that each power-of-two octave is split into
// 2^kSubBucketBits sub-buckets, so a bucket's width is at most 2^-5 =
// 3.125% of its lower bound and a quantile read (bucket midpoint) is
// within ~1.6% of the true sample — comfortably inside the 5% acceptance
// bound. Memory is a fixed ~15 KiB counts array per histogram, O(1) in
// the number of recorded samples, which is what lets the service keep one
// per (feed, stage) where the old sorted-sample ring could not. The array
// is allocated by the first sample (RecordN, or a Merge of a non-empty
// histogram), so an empty histogram — a feed that never completed a
// window — costs nothing.
//
// Counts are exact (every Record lands in exactly one bucket); min, max,
// sum and count are tracked exactly on the side, so mean() is exact and
// Quantile() is clamped into [min, max]. Merge() adds two histograms
// bucket-wise — the geometry is compile-time fixed, so merging is
// associative and commutative, which is what makes per-thread or
// per-feed histograms aggregatable after the fact.
//
// Quantile rank convention matches the dispatcher's historical
// sorted-sample Percentile(): rank = p * (count - 1), rounded to the
// nearest integer, value = that order statistic.

#ifndef FRT_OBS_HISTOGRAM_H_
#define FRT_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace frt::obs {

class Histogram {
 public:
  /// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBucketCount = 1ull << kSubBucketBits;
  /// Bucket count covering the full 63-bit tick range (~292 years at
  /// 1 us ticks); values beyond clamp into the last bucket.
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits) * kSubBucketCount;

  /// Empty; allocates no buckets until the first sample.
  Histogram() = default;

  /// \brief Rebuilds a histogram from externally maintained parts —
  /// `bucket_counts` must hold kNumBuckets entries laid out by
  /// BucketIndex, and count/min/max/sum must be the exact side stats the
  /// accessors would have tracked. Used by the metrics registry to
  /// snapshot its atomic bucket cells into a plain, mergeable Histogram.
  Histogram(const uint64_t* bucket_counts, uint64_t count, double min_ms,
            double max_ms, double sum_ms)
      : counts_(bucket_counts, bucket_counts + kNumBuckets),
        count_(count),
        min_ms_(min_ms),
        max_ms_(max_ms),
        sum_ms_(sum_ms) {}

  /// \brief Records one duration (milliseconds; negatives clamp to 0).
  void Record(double ms) { RecordN(ms, 1); }

  /// \brief Records `n` occurrences of the same duration.
  void RecordN(double ms, uint64_t n);

  /// \brief Adds `other`'s samples into this histogram.
  void Merge(const Histogram& other);

  /// \brief The q-th quantile in ms (q in [0,1]); 0 when empty. Returns
  /// the midpoint of the bucket holding the target order statistic,
  /// clamped into [min_ms, max_ms].
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  /// Exact extremes and sum (ms); 0 when empty.
  double min_ms() const { return count_ == 0 ? 0.0 : min_ms_; }
  double max_ms() const { return max_ms_; }
  double sum_ms() const { return sum_ms_; }
  double mean_ms() const {
    return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_);
  }

  /// Bucket geometry, shared with the registry's atomic histogram cells
  /// so their externally recorded buckets merge with ours bit for bit.
  static uint64_t TicksFromMs(double ms);
  static size_t BucketIndex(uint64_t ticks);
  /// Midpoint of bucket `index`, in ms.
  static double BucketMidMs(size_t index);

 private:
  /// kNumBuckets entries once a sample landed; empty before.
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
  double sum_ms_ = 0.0;
};

}  // namespace frt::obs

#endif  // FRT_OBS_HISTOGRAM_H_
