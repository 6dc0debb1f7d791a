// Thin POSIX socket layer for the ingress tier: Unix-domain sockets first
// (the single-host edge/aggregator deployment CI exercises), TCP behind
// the same Endpoint abstraction for multi-host fan-in.
//
// Endpoints are spelled on the command line as
//
//   unix:/path/to/socket        stream Unix-domain socket
//   tcp:HOST:PORT               IPv4 TCP (numeric or resolvable host)
//
// Backpressure is the kernel's: WriteAll blocks once the peer's socket
// buffer fills, which is exactly how an aggregator's bounded arrival
// lane (dispatcher Offer blocking) propagates upstream to every edge —
// no application-level flow control protocol needed.
//
// SIGPIPE never fires from here: WriteAll sends with MSG_NOSIGNAL, so a
// peer disconnect surfaces as an EPIPE IOError the caller can handle
// instead of a process-killing signal. Server CLIs additionally ignore
// SIGPIPE outright (belt and suspenders for any stdio writes to a dead
// pipe).

#ifndef FRT_NET_SOCKET_H_
#define FRT_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "obs/registry.h"

namespace frt::net {

/// A parsed listen/connect address.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< kUnix: filesystem path of the socket
  std::string host;  ///< kTcp: host name or numeric address
  uint16_t port = 0; ///< kTcp
};

/// \brief Parses "unix:PATH" or "tcp:HOST:PORT". InvalidArgument on any
/// other spelling (strict, like the numeric CLI flags).
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// RAII owner of one socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int Release();
  void Close();
  /// \brief shutdown(2) both directions — wakes a thread blocked in
  /// ReadFull/WriteAll on this socket without racing the close.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// \brief Binds + listens on `endpoint`. For unix endpoints a stale
/// socket file left by a dead process is removed first.
Result<Socket> ListenOn(const Endpoint& endpoint, int backlog = 16);

/// \brief True when `err` (an accept(2) errno) is a transient condition
/// — aborted handshake (ECONNABORTED), fd exhaustion (EMFILE/ENFILE),
/// or kernel memory pressure — that an accept loop should retry with
/// bounded backoff rather than treat as fatal to the listener.
bool IsTransientAcceptError(int err);

/// \brief Accepts one connection (blocking, EINTR-safe). Returns an
/// invalid Socket (not an error) when the listener was shut down. On an
/// IOError, `transient` (when non-null) is set to whether the condition
/// is retryable per IsTransientAcceptError.
Result<Socket> Accept(const Socket& listener, bool* transient = nullptr);

/// \brief The accept loop of a listening server, run on its accept
/// thread. Blocks in accept(2) on `listener` and hands each connection to
/// `on_conn` until the listener is shut down (the one way to stop it:
/// shutdown(2) wakes the blocked accept), accept fails for good, or
/// `on_conn` returns false. A transient accept failure
/// (IsTransientAcceptError) is retried after a backoff that doubles from
/// 1 ms up to 200 ms, counted in `retries` and logged as "`label` accept
/// failed".
void ServeAccepts(const Socket& listener, obs::Counter* retries,
                  std::string_view label,
                  const std::function<bool(Socket)>& on_conn);

/// \brief Connects to `endpoint` (blocking).
Result<Socket> ConnectTo(const Endpoint& endpoint);

/// \brief Port the listener actually bound (tcp:HOST:0 picks one).
Result<uint16_t> LocalPort(const Socket& listener);

/// \brief Removes a unix endpoint's socket file (listener cleanup).
void UnlinkIfUnix(const Endpoint& endpoint);

/// \brief Reads exactly `size` bytes. Returns false on clean EOF before
/// the first byte (the peer closed between frames); EOF mid-buffer is an
/// IOError (truncated frame).
Result<bool> ReadFull(int fd, void* buf, size_t size);

/// \brief Writes all of `data` (EINTR-safe, MSG_NOSIGNAL — a dead peer
/// yields an EPIPE IOError, never SIGPIPE).
Status WriteAll(int fd, const void* data, size_t size);

}  // namespace frt::net

#endif  // FRT_NET_SOCKET_H_
