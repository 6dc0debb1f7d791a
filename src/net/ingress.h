// IngressServer: the aggregator side of the distributed ingress tier.
//
// Accepts framed edge connections (net/frame.h) on one listen endpoint and
// pumps every decoded trajectory into the service through an OfferFn —
// normally ServiceDispatcher::Offer, whose bounded arrival lane is the
// backpressure: when the dispatcher falls behind, Offer blocks, the reader
// thread stops draining its socket, the kernel buffers fill, and the edge's
// WriteAll blocks in turn. No acks, no windowed flow control protocol.
//
// Error containment is two-tiered, mirroring the frame format's contract:
//
//   - Framing-level faults (bad magic/version/type, oversized length, CRC
//     mismatch, EOF mid-frame, disconnect without a kBye) mean the byte
//     stream can no longer be trusted. The connection is torn down and
//     every feed it had delivered is reported through QuarantineFn — the
//     service quarantines those feeds (their output stops at the fault:
//     windows closed before it publish, the partial window is dropped,
//     further arrivals are refused) but keeps serving everyone else.
//   - Semantic faults (a CRC-clean kTrajectory payload that fails strict
//     decoding) leave the stream aligned: only the feed named in the
//     payload is quarantined and the connection keeps going. When the
//     feed id is unreadable or invalid (IsValidFeedId) the fault degrades
//     to framing-level.
//
// One reader thread per connection; a process that expects N edges can set
// Options::max_connections = N and Wait() returns once all N streams end.
// Readers emit "frame_read" (blocking socket read) and "frame_decode"
// (CRC + payload decode) spans under the "net" trace category.

#ifndef FRT_NET_INGRESS_H_
#define FRT_NET_INGRESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "traj/trajectory.h"

namespace frt::net {

/// Sinks one decoded arrival into the service. Blocking is the
/// backpressure; returning false means the service is finishing and the
/// connection should wind down.
using OfferFn = std::function<bool(std::string feed, Trajectory t)>;

/// Reports a feed whose stream can no longer be trusted. Must be
/// idempotent per feed (multiple edges, or a framing fault after a
/// semantic one, may report the same feed twice).
using QuarantineFn =
    std::function<void(const std::string& feed, const std::string& reason)>;

class IngressServer {
 public:
  struct Options {
    Endpoint endpoint;
    /// Stop accepting after this many connections (0 = accept until
    /// Stop()); Wait() then returns once the last reader drains.
    size_t max_connections = 0;
    int backlog = 16;
    /// Registry holding the frt_ingress_* counters (not owned; must
    /// outlive the server) — the only store of what stats() reports.
    /// nullptr (the default) gives the server a private registry;
    /// frt_serve passes &obs::Registry::Default() so /metrics serves it.
    obs::Registry* registry = nullptr;
  };

  struct Stats {
    uint64_t connections = 0;
    uint64_t frames = 0;        ///< frames fully read and CRC-verified
    uint64_t trajectories = 0;  ///< trajectories offered downstream
    uint64_t quarantine_events = 0;  ///< QuarantineFn invocations
  };

  IngressServer(Options options, OfferFn offer, QuarantineFn quarantine);
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  /// \brief Binds the listen endpoint and spawns the accept thread.
  Status Start();

  /// \brief Blocks until the accept loop ends (max_connections reached or
  /// Stop()) and every reader thread drains, then returns. Never returns
  /// a per-connection error — those became quarantine reports.
  void Wait();

  /// \brief Stops accepting and unblocks Wait(): shuts down the listener
  /// and the read side of every live connection, so a reader blocked on a
  /// silent edge wakes too. Takes a lock, so not for signal handlers.
  void Stop();

  /// Read from the counters; exact after Wait().
  Stats stats() const;

 private:
  void AcceptLoop();
  void ReadConnection(Socket conn, size_t index);

  Options options_;
  OfferFn offer_;
  QuarantineFn quarantine_;
  /// Guards the fds Stop() shuts down (closed only under it) and stop_.
  std::mutex mu_;
  Socket listener_;
  std::unordered_set<int> live_fds_;
  std::thread accept_thread_;
  std::vector<std::thread> readers_;
  std::atomic<bool> stop_{false};  ///< readers also check it per frame
  bool started_ = false;
  /// Backs options_.registry when the caller passed none.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_total_ = nullptr;
  obs::Counter* trajectories_total_ = nullptr;
  obs::Counter* quarantine_total_ = nullptr;
  obs::Counter* accept_retries_ = nullptr;
};

}  // namespace frt::net

#endif  // FRT_NET_INGRESS_H_
