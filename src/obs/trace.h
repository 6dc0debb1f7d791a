// Runtime-toggled span trace recorder.
//
// Always compiled in, off by default: the only cost on an instrumented
// code path while tracing is disabled is one relaxed atomic load (see
// TraceEnabled). When enabled — TraceRecorder::Get().Start(...) — each
// emitting thread lazily registers a fixed-capacity ring buffer of
// fixed-size span events and appends to it without locks or allocation;
// Stop() drains every ring into a TraceDump that the Chrome trace-event
// exporter (obs/trace_export.h) turns into a chrome://tracing / Perfetto
// loadable JSON file.
//
// Overflow policy: a full ring overwrites its oldest events (the trace
// keeps the most recent window of activity) and the overwritten count is
// reported exactly in TraceDump::dropped — truncation is never silent.
//
// Concurrency. Each ring has exactly one writer (its owning thread).
// Stop() may race with in-flight writers, so every slot is a miniature
// seqlock over atomic words: a reader that observes a torn slot skips it
// and counts it as dropped instead of reporting garbage. The seqlock is
// ordered by release stores and acquire loads of the words and the
// sequence themselves, with no standalone fence, and every shared access
// is std::atomic, so the recorder is clean under ThreadSanitizer and GCC's
// -Wtsan. Events emitted after Stop() began draining a ring may
// be lost; quiesce the workload before stopping for a complete trace.
//
// Timestamps are steady_clock, reported as nanoseconds since Start().

#ifndef FRT_OBS_TRACE_H_
#define FRT_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace frt::obs {

/// Coarse span taxonomy; the exporter writes these as the Chrome trace
/// "cat" field so the UI can filter per subsystem.
enum class SpanCategory : uint8_t {
  kIngest = 0,     ///< reading + parsing arrivals
  kWindow = 1,     ///< window assembly / closure
  kQueue = 2,      ///< waiting between close and execution
  kAnonymize = 3,  ///< the anonymization batch job
  kIndex = 4,      ///< sampled index-search sub-spans
  kDurability = 5, ///< checkpoint write + fsync
  kPublish = 6,    ///< sink / publish path
  kPool = 7,       ///< worker pool scheduling (task/steal/idle)
  kNet = 8,        ///< ingress framing: socket reads + frame decoding
};

const char* SpanCategoryName(SpanCategory category);

/// One drained span, decoded out of the ring's wire format.
struct TraceEvent {
  std::string name;
  std::string feed;  ///< empty for service-wide spans
  SpanCategory category = SpanCategory::kPool;
  uint32_t tid = 0;
  int64_t start_ns = 0;  ///< steady_clock ns since recorder Start()
  int64_t dur_ns = 0;
};

struct TraceThreadInfo {
  uint32_t tid = 0;
  std::string name;  ///< empty when the thread never named itself
  uint64_t dropped = 0;
};

/// Everything Stop() collected.
struct TraceDump {
  std::vector<TraceEvent> events;   ///< sorted by start_ns
  std::vector<TraceThreadInfo> threads;
  uint64_t dropped = 0;  ///< events overwritten or torn, across threads
  /// Wall-clock us of the recorder's Start(), for log correlation.
  int64_t start_unix_us = 0;
};

class TraceRecorder {
 public:
  struct Options {
    /// Ring capacity per emitting thread, in events (~64 B each). The
    /// ring overwrites its oldest events past this and counts the drops.
    size_t buffer_events = 1 << 16;
  };

  /// The process-wide recorder used by all instrumentation macros.
  static TraceRecorder& Get();

  /// \brief Arms the recorder. Returns false if it is already running.
  bool Start(const Options& options);

  /// \brief Disarms the recorder and drains every thread ring. Safe to
  /// call while instrumented threads are still running (see file
  /// comment); returns an empty dump when the recorder was not running.
  TraceDump Stop();

  /// \brief Copies every thread ring without disarming the recorder, so
  /// recording continues (a live view of the spans so far). Spans being
  /// written while it reads count as dropped in the copy. Empty when the
  /// recorder is not running.
  TraceDump Peek() const;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// \brief Appends one span to the calling thread's ring (registering
  /// the thread on first use). No-op while disabled.
  void Emit(const char* name, SpanCategory category, std::string_view feed,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end);

  /// \brief Names the calling thread in trace output ("dispatcher",
  /// "pool-worker-3", ...). May be called before Start(); the name
  /// sticks for later recording sessions of this thread.
  void SetCurrentThreadName(std::string_view name);

 private:
  struct ThreadBuffer;
  struct Tls;

  TraceRecorder() = default;
  Tls& GetTls();
  /// Reads every ring into a dump sorted by start; mu_ held.
  TraceDump ReadRingsLocked() const;
  void RegisterThread(Tls* tls, uint64_t generation);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{0};

  mutable std::mutex mu_;  ///< registration / Start / Stop / Peek / names
  bool running_ = false;
  size_t capacity_ = 1 << 16;
  std::chrono::steady_clock::time_point start_time_{};
  int64_t start_unix_us_ = 0;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  uint32_t next_tid_ = 1;
};

/// One relaxed load; the whole cost of disabled tracing.
inline bool TraceEnabled() { return TraceRecorder::Get().enabled(); }

/// \brief Emits a span with explicit endpoints (for spans that straddle
/// threads or were timed before the emit site). No-op while disabled.
inline void EmitSpan(const char* name, SpanCategory category,
                     std::string_view feed,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  TraceRecorder& recorder = TraceRecorder::Get();
  if (recorder.enabled()) recorder.Emit(name, category, feed, start, end);
}

/// \brief Names the current thread in trace output.
inline void SetTraceThreadName(std::string_view name) {
  TraceRecorder::Get().SetCurrentThreadName(name);
}

/// RAII span covering the enclosing scope. Costs one relaxed load when
/// tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, SpanCategory category,
             std::string_view feed = {})
      : name_(name), feed_(feed), category_(category),
        armed_(TraceEnabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (armed_) {
      EmitSpan(name_, category_, feed_, start_,
               std::chrono::steady_clock::now());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::string_view feed_;
  SpanCategory category_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace frt::obs

#endif  // FRT_OBS_TRACE_H_
