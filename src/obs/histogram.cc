#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace frt::obs {

namespace {

/// Ticks clamp here (2^62 us) so the bucket index never leaves the table;
/// the exact max_ms still reports the true value.
constexpr uint64_t kMaxTicks = 1ull << 62;

int MostSignificantBit(uint64_t v) {
  return 63 - __builtin_clzll(v);
}

}  // namespace

uint64_t Histogram::TicksFromMs(double ms) {
  if (!(ms > 0.0)) return 0;  // negatives and NaN clamp to 0
  const double ticks = ms * 1000.0;  // 1 tick = 1 us
  if (ticks >= static_cast<double>(kMaxTicks)) return kMaxTicks;
  return static_cast<uint64_t>(std::llround(ticks));
}

size_t Histogram::BucketIndex(uint64_t ticks) {
  if (ticks < kSubBucketCount) return static_cast<size_t>(ticks);
  const int e = MostSignificantBit(ticks);
  const int shift = e - kSubBucketBits;
  const uint64_t offset = (ticks >> shift) - kSubBucketCount;
  return static_cast<size_t>(
      (static_cast<uint64_t>(shift + 1) << kSubBucketBits) + offset);
}

double Histogram::BucketMidMs(size_t index) {
  uint64_t lower = 0;
  uint64_t width = 1;
  if (index < kSubBucketCount) {
    lower = index;
  } else {
    const uint64_t block = index >> kSubBucketBits;
    const uint64_t offset = index & (kSubBucketCount - 1);
    const int shift = static_cast<int>(block) - 1;
    lower = (kSubBucketCount + offset) << shift;
    width = 1ull << shift;
  }
  const double mid_ticks =
      static_cast<double>(lower) + static_cast<double>(width - 1) * 0.5;
  return mid_ticks / 1000.0;
}

void Histogram::RecordN(double ms, uint64_t n) {
  if (n == 0) return;
  if (counts_.empty()) counts_.resize(kNumBuckets, 0);
  counts_[BucketIndex(TicksFromMs(ms))] += n;
  const double v = ms > 0.0 ? ms : 0.0;
  if (count_ == 0 || v < min_ms_) min_ms_ = v;
  if (v > max_ms_) max_ms_ = v;
  sum_ms_ += v * static_cast<double>(n);
  count_ += n;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.resize(kNumBuckets, 0);
  for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0 || other.min_ms_ < min_ms_) min_ms_ = other.min_ms_;
  if (other.max_ms_ > max_ms_) max_ms_ = other.max_ms_;
  sum_ms_ += other.sum_ms_;
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Same order-statistic convention as the dispatcher's historical
  // sorted-sample Percentile: rank = q*(n-1) rounded to nearest.
  const double rank = q * static_cast<double>(count_ - 1);
  const uint64_t target = static_cast<uint64_t>(rank + 0.5);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[i];
    if (cumulative > target) {
      return std::clamp(BucketMidMs(i), min_ms(), max_ms());
    }
  }
  return max_ms_;  // unreachable: cumulative reaches count_
}

}  // namespace frt::obs
