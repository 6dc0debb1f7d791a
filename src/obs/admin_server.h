// Pull-based introspection endpoint: a small blocking HTTP/1.0 responder
// on the src/net socket layer, serving the metrics registry and
// service-published snapshots to operators (curl, Prometheus scrapers,
// the CI smoke) and accepting runtime control toggles.
//
// Contract with the data plane (the reason this lives in obs/ and not in
// service/): a handler may only ever read registry atomics and
// SnapshotBoard copies. The admin thread never takes a dispatcher lock,
// never calls into a session, and the dispatcher never waits on the
// admin thread — so a wedged, slow, or malicious scraper can stall at
// most other scrapers (connections are served inline, one at a time,
// with socket I/O timeouts), never the data plane.
//
// Protocol: deliberately minimal HTTP/1.0 — one request per connection,
// `Connection: close`, Content-Length framed responses. That is all a
// scrape client, curl, or a python one-liner needs, and it keeps the
// responder free of keep-alive state machines.
//
//   AdminServer admin({endpoint});
//   admin.Handle("GET", "/feedz", [&](const HttpRequest&) { ... });
//   admin.Start();             // spawns the accept thread
//   ...
//   admin.Stop();              // joins it
//
// `GET /metrics` (Prometheus text exposition from the registry) and
// `GET /healthz` are pre-registered defaults; CLIs add /readyz, /feedz,
// and /control on top. Transient accept failures (ECONNABORTED, EMFILE,
// ...) retry with bounded backoff and count into
// `frt_admin_accept_retries_total`.

#ifndef FRT_OBS_ADMIN_SERVER_H_
#define FRT_OBS_ADMIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "obs/registry.h"

namespace frt::obs {

struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET"
  std::string path;    ///< request path without the query string
  std::string query;   ///< raw text after '?', empty when absent
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    net::Endpoint endpoint;
    int backlog = 8;
    /// Per-connection socket read/write timeout: bounds how long one
    /// wedged client can monopolize the (single) serving thread.
    int io_timeout_ms = 2000;
    Registry* registry = &Registry::Default();
  };

  explicit AdminServer(Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers a handler (replacing any default). Must be called before
  /// Start — the route table is read without a lock once the accept
  /// thread runs.
  void Handle(std::string method, std::string path, Handler handler);

  /// Binds the endpoint and spawns the accept thread.
  Status Start();

  /// Shuts down the listener and the connection being served, so a silent
  /// client cannot hold it, and joins the accept thread. Idempotent.
  void Stop();

  /// Port actually bound (tcp:HOST:0 picks one); 0 for unix endpoints
  /// or before Start.
  uint16_t bound_port() const { return bound_port_; }

 private:
  void AcceptLoop();
  void ServeConnection(const net::Socket& conn);

  Options options_;
  std::map<std::string, std::map<std::string, Handler>> routes_;
  Counter* accept_retries_ = nullptr;
  Counter* requests_ = nullptr;
  net::Socket listener_;
  uint16_t bound_port_ = 0;
  std::thread thread_;
  /// Guards serving_ (closed only under it) and stopping_.
  std::mutex mu_;
  net::Socket serving_;
  bool stopping_ = false;
  bool started_ = false;
};

/// \brief Decodes `k=v&k2=v2` (query string or form body) with %XX and
/// `+` unescaping; preserves order and duplicates.
std::vector<std::pair<std::string, std::string>> ParseFormPairs(
    std::string_view text);

/// \brief Escapes a string for embedding in a JSON string literal
/// (quotes, backslash, control characters).
std::string JsonEscape(std::string_view s);

/// Hooks MakeControlHandler applies runtime toggles through.
struct ControlHooks {
  /// Where `trace=off` writes the Chrome trace dump; empty discards the
  /// spans and reports counts only.
  std::string trace_out;
  /// Ring capacity for `trace=on` (spans per thread).
  size_t trace_buffer_events = 65536;
  /// Applies `metrics_interval_ms=N`; unset = toggle unsupported.
  std::function<bool(int64_t)> set_metrics_interval_ms;
};

/// \brief Standard POST /control handler: `trace=on|off`,
/// `log_level=0..4` (ParseLogLevel semantics), `metrics_interval_ms=N`.
/// Unknown keys or malformed values are a 400 and nothing is applied.
AdminServer::Handler MakeControlHandler(ControlHooks hooks);

}  // namespace frt::obs

#endif  // FRT_OBS_ADMIN_SERVER_H_
