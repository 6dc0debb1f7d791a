#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace frt::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + spec +
                                     "'");
    }
    // sun_path is a fixed-size buffer; refuse what cannot fit rather than
    // silently truncating to a different path.
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + ep.path);
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return Status::InvalidArgument("want tcp:HOST:PORT, got '" + spec +
                                     "'");
    }
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (errno != 0 || end == port_str.c_str() || *end != '\0' || port < 0 ||
        port > 65535) {
      return Status::InvalidArgument("bad TCP port '" + port_str + "' in '" +
                                     spec + "'");
    }
    ep.port = static_cast<uint16_t>(port);
    return ep;
  }
  return Status::InvalidArgument(
      "endpoint must be unix:PATH or tcp:HOST:PORT, got '" + spec + "'");
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

namespace {

Result<Socket> ListenUnix(const Endpoint& endpoint, int backlog) {
  Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return Status::IOError(Errno("socket(AF_UNIX)"));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, endpoint.path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(endpoint.path.c_str());  // stale socket from a dead process
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError(Errno("bind(" + endpoint.path + ")"));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return Status::IOError(Errno("listen(" + endpoint.path + ")"));
  }
  return sock;
}

Result<sockaddr_in> ResolveTcp(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1) {
    return addr;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(endpoint.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::IOError("cannot resolve host '" + endpoint.host +
                           "': " + ::gai_strerror(rc));
  }
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

Result<Socket> ListenTcp(const Endpoint& endpoint, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return Status::IOError(Errno("socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto addr = ResolveTcp(endpoint);
  if (!addr.ok()) return addr.status();
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return Status::IOError(Errno("bind(" + endpoint.host + ":" +
                                 std::to_string(endpoint.port) + ")"));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return Status::IOError(Errno("listen(tcp)"));
  }
  return sock;
}

}  // namespace

Result<Socket> ListenOn(const Endpoint& endpoint, int backlog) {
  return endpoint.kind == Endpoint::Kind::kUnix
             ? ListenUnix(endpoint, backlog)
             : ListenTcp(endpoint, backlog);
}

bool IsTransientAcceptError(int err) {
  switch (err) {
    case ECONNABORTED:  // peer gave up while queued — next accept is fine
    case EMFILE:        // fd exhaustion: transient once a conn closes
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
#ifdef EPROTO
    case EPROTO:
#endif
      return true;
    default:
      return false;
  }
}

Result<Socket> Accept(const Socket& listener, bool* transient) {
  if (transient != nullptr) *transient = false;
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // The listener was shut down / closed under us: a clean stop, not an
    // error the caller needs to report. Transient conditions (aborted
    // handshake, fd/buffer exhaustion) are flagged through `transient`
    // so accept loops retry with backoff instead of dying.
    if (errno == EINVAL || errno == EBADF) return Socket();
    if (transient != nullptr) *transient = IsTransientAcceptError(errno);
    return Status::IOError(Errno("accept"));
  }
}

void ServeAccepts(const Socket& listener, obs::Counter* retries,
                  std::string_view label,
                  const std::function<bool(Socket)>& on_conn) {
  int backoff_ms = 1;
  for (;;) {
    bool transient = false;
    Result<Socket> conn = Accept(listener, &transient);
    if (!conn.ok()) {
      if (!transient) {
        FRT_LOG(Warning) << label
                         << " accept failed: " << conn.status().message();
        return;
      }
      // An aborted handshake or fd exhaustion must not kill the listener
      // while healthy peers are still connecting: retry with bounded
      // backoff (the sleep also lets fds drain under EMFILE) and leave an
      // audit trail in the registry.
      retries->Inc();
      FRT_LOG(Warning) << label << " accept failed (retrying in "
                       << backoff_ms
                       << " ms): " << conn.status().message();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 200);
      continue;
    }
    if (!conn->valid()) return;  // listener shut down
    backoff_ms = 1;
    if (!on_conn(*std::move(conn))) return;
  }
}

Result<Socket> ConnectTo(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) return Status::IOError(Errno("socket(AF_UNIX)"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError(Errno("connect(" + endpoint.path + ")"));
    }
    return sock;
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return Status::IOError(Errno("socket(AF_INET)"));
  auto addr = ResolveTcp(endpoint);
  if (!addr.ok()) return addr.status();
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return Status::IOError(Errno("connect(" + endpoint.host + ":" +
                                 std::to_string(endpoint.port) + ")"));
  }
  return sock;
}

Result<uint16_t> LocalPort(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Status::IOError(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void UnlinkIfUnix(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint.path.c_str());
  }
}

Result<bool> ReadFull(int fd, void* buf, size_t size) {
  auto* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      return Status::IOError("connection closed mid-frame (" +
                             std::to_string(got) + " of " +
                             std::to_string(size) + " bytes)");
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("read"));
  }
  return true;
}

Status WriteAll(int fd, const void* data, size_t size) {
  const auto* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("send"));
  }
  return Status::OK();
}

}  // namespace frt::net
