// Process-wide metrics registry: named atomic counters, gauges, and
// histogram cells with one canonical, cheaply-sampled home per metric.
//
// The registry is the pull side of the observability plane. Components
// register a metric once (registration takes a mutex, so do it at
// construction time), cache the returned pointer, and update it from hot
// paths with plain relaxed atomics — no lock, no allocation, no syscall.
// Any thread may concurrently read every metric (RenderPrometheus, the
// admin endpoint, tests) without coordinating with writers.
//
// Ownership and lifetime rules:
//   - The registry owns every metric object it hands out. Pointers
//     returned by GetCounter/GetGauge/GetHistogram are stable for the
//     registry's lifetime — components hold them as raw pointers.
//   - Registry::Default() is a process-wide instance that is
//     intentionally leaked: worker threads may still bump counters
//     during static destruction.
//   - Every component that registers metrics takes a `Registry*`.
//     ServiceDispatcher and IngressServer keep their values only there
//     and default to a private registry (nullptr); the CLIs pass
//     `&Registry::Default()`, which /metrics serves.
//   - Re-registering a name returns the same object (first help string
//     wins), so two components may share a metric deliberately.
//
// Series names follow Prometheus conventions: `frt_windows_total` for a
// bare series, `frt_stage_ms{stage="anonymize"}` for a labeled one (use
// WithLabel to build these — it escapes the value). RenderPrometheus
// emits the text exposition format, grouping label variants of a base
// name under one # TYPE line; histograms render as summaries
// (quantile series plus _sum/_count).
//
// Concurrent-read consistency: each metric is read with one (or for
// histogram cells, a few) relaxed atomic loads, so a render taken while
// writers are active is per-metric atomic but not a cross-metric
// snapshot. Once writers are quiesced (dispatcher joined), reads are
// exact — which is what makes shutdown values comparable bit-for-bit
// with the final report.

#ifndef FRT_OBS_REGISTRY_H_
#define FRT_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.h"

namespace frt::obs {

/// Monotone event counter. Inc is one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. Set/value are single relaxed ops.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A lock-free multi-writer histogram cell sharing obs::Histogram's
/// bucket geometry. RecordN is one relaxed fetch_add per bucket plus CAS
/// loops for the exact min/max/sum side stats; Snapshot() rebuilds a
/// plain Histogram whose quantiles/mean match what a single-threaded
/// Histogram fed the same samples would report.
class HistogramCell {
 public:
  HistogramCell();

  void Record(double ms) { RecordN(ms, 1); }
  void RecordN(double ms, uint64_t n);

  /// Point-in-time copy. Exact once writers are quiesced; during
  /// concurrent writes individual fields are atomic but the count and
  /// buckets may be off by in-flight records.
  Histogram Snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> min_ms_;  ///< +inf until the first record
  std::atomic<double> max_ms_{0.0};
  std::atomic<double> sum_ms_{0.0};
};

/// \brief Escapes a label value for the Prometheus text format
/// (backslash, double quote, newline).
std::string LabelEscape(std::string_view value);

/// \brief Builds `base{key="value"}` with the value escaped.
std::string WithLabel(std::string_view base, std::string_view key,
                      std::string_view value);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry (leaked: threads may record during static
  /// destruction).
  static Registry& Default();

  /// Registers (or finds) a metric. The pointer is stable for the
  /// registry's lifetime; callers cache it and never take the lock
  /// again. Registering an existing name with a different kind returns
  /// nullptr (a naming bug worth failing loudly in tests).
  Counter* GetCounter(std::string_view name, std::string_view help = {});
  Gauge* GetGauge(std::string_view name, std::string_view help = {});
  HistogramCell* GetHistogram(std::string_view name,
                              std::string_view help = {});

  /// \brief Full Prometheus text exposition of every registered metric,
  /// sorted by series name, label variants grouped under one TYPE line.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramCell> histogram;
  };

  Entry* FindOrCreate(std::string_view name, std::string_view help,
                      Kind kind);

  mutable std::mutex mu_;  ///< guards entries_ (registration + render)
  std::map<std::string, Entry> entries_;
};

/// Single-writer publication point for an arbitrary snapshot object; any
/// number of readers. The only critical section is one shared_ptr
/// assignment — never held across I/O or allocation of the snapshot
/// itself — so a wedged reader (a slow admin scrape) can never block the
/// publisher (the dispatcher), and a reader always sees a complete,
/// immutable snapshot. This is the TSan-clean equivalent of a seqlock
/// over non-trivially-copyable data.
template <typename T>
class SnapshotBoard {
 public:
  void Publish(std::shared_ptr<const T> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = std::move(snapshot);
  }

  /// Latest published snapshot; nullptr before the first Publish.
  std::shared_ptr<const T> Read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latest_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> latest_;
};

}  // namespace frt::obs

#endif  // FRT_OBS_REGISTRY_H_
