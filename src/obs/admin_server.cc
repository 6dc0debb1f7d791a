#include "obs/admin_server.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace frt::obs {

namespace {

constexpr size_t kMaxHeaderBytes = 8 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "";
  }
}

void SetIoTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Case-insensitive single-header lookup in a raw header block.
bool FindHeaderValue(std::string_view headers, std::string_view name,
                     std::string_view* value) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = headers.size();
    const std::string_view line = headers.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, colon);
    if (key.size() != name.size()) continue;
    bool match = true;
    for (size_t i = 0; i < key.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(key[i])) !=
          std::tolower(static_cast<unsigned char>(name[i]))) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    std::string_view v = line.substr(colon + 1);
    while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
      v.remove_prefix(1);
    }
    *value = v;
    return true;
  }
  return false;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out += ' ';
    } else if (text[i] == '%' && i + 2 < text.size() &&
               HexValue(text[i + 1]) >= 0 && HexValue(text[i + 2]) >= 0) {
      out += static_cast<char>(HexValue(text[i + 1]) * 16 +
                               HexValue(text[i + 2]));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> ParseFormPairs(
    std::string_view text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t amp = text.find('&', pos);
    if (amp == std::string_view::npos) amp = text.size();
    const std::string_view item = text.substr(pos, amp - pos);
    pos = amp + 1;
    if (item.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      pairs.emplace_back(PercentDecode(item), std::string());
    } else {
      pairs.emplace_back(PercentDecode(item.substr(0, eq)),
                         PercentDecode(item.substr(eq + 1)));
    }
  }
  return pairs;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

AdminServer::AdminServer(Options options) : options_(std::move(options)) {
  accept_retries_ = options_.registry->GetCounter(
      "frt_admin_accept_retries_total",
      "Transient admin accept() failures retried with backoff");
  requests_ = options_.registry->GetCounter(
      "frt_admin_requests_total", "HTTP requests served by the admin plane");
  Registry* registry = options_.registry;
  Handle("GET", "/metrics", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry->RenderPrometheus();
    return response;
  });
  Handle("GET", "/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(std::string method, std::string path,
                         Handler handler) {
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

Status AdminServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("admin server already started");
  }
  auto listener = net::ListenOn(options_.endpoint, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = *std::move(listener);
  if (options_.endpoint.kind == net::Endpoint::Kind::kTcp) {
    if (auto port = net::LocalPort(listener_); port.ok()) {
      bound_port_ = *port;
    }
  }
  stopping_ = false;
  thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void AdminServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    listener_.ShutdownBoth();
    serving_.ShutdownBoth();
  }
  if (thread_.joinable()) thread_.join();
  listener_.Close();
  net::UnlinkIfUnix(options_.endpoint);
  started_ = false;
}

void AdminServer::AcceptLoop() {
  SetTraceThreadName("admin");
  net::ServeAccepts(listener_, accept_retries_, "admin",
                    [this](net::Socket conn) {
                      {
                        std::lock_guard<std::mutex> lock(mu_);
                        if (stopping_) return false;  // Stop() never saw it
                        serving_ = std::move(conn);
                      }
                      ServeConnection(serving_);
                      std::lock_guard<std::mutex> lock(mu_);
                      serving_.Close();
                      return true;
                    });
}

void AdminServer::ServeConnection(const net::Socket& conn) {
  SetIoTimeouts(conn.fd(), options_.io_timeout_ms);

  // ---- Read the header block (request line + headers). ----
  std::string data;
  size_t header_end = std::string::npos;
  while (data.size() < kMaxHeaderBytes) {
    char buf[2048];
    const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
    if (n <= 0) return;  // timeout, EOF, or error: drop the connection
    data.append(buf, static_cast<size_t>(n));
    header_end = data.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
  }
  if (header_end == std::string::npos) return;

  HttpResponse response;
  HttpRequest request;
  bool parsed = false;
  const std::string_view head = std::string_view(data).substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      head.substr(0, std::min(line_end, head.size()));
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 != std::string_view::npos &&
      request_line.substr(sp2 + 1).rfind("HTTP/", 0) == 0) {
    request.method = std::string(request_line.substr(0, sp1));
    std::string_view target =
        request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t question = target.find('?');
    request.path = std::string(target.substr(0, question));
    if (question != std::string_view::npos) {
      request.query = std::string(target.substr(question + 1));
    }
    parsed = !request.method.empty() && !request.path.empty() &&
             request.path[0] == '/';
  }

  if (!parsed) {
    response.status = 400;
    response.body = "malformed request\n";
  } else {
    // ---- Optional body (POST /control). ----
    const std::string_view headers =
        head.substr(line_end == std::string_view::npos
                        ? head.size()
                        : std::min(line_end + 2, head.size()));
    std::string_view length_text;
    size_t content_length = 0;
    if (FindHeaderValue(headers, "Content-Length", &length_text)) {
      auto parsed_length = ParseInt64(length_text);
      if (!parsed_length.ok() || *parsed_length < 0 ||
          *parsed_length > static_cast<int64_t>(kMaxBodyBytes)) {
        response.status = 400;
        response.body = "bad Content-Length\n";
        parsed = false;
      } else {
        content_length = static_cast<size_t>(*parsed_length);
      }
    }
    if (parsed) {
      request.body = data.substr(header_end + 4);
      while (request.body.size() < content_length) {
        char buf[2048];
        const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
        if (n <= 0) return;
        request.body.append(buf, static_cast<size_t>(n));
      }
      request.body.resize(content_length);

      // ---- Dispatch. ----
      requests_->Inc();
      const auto path_it = routes_.find(request.path);
      if (path_it == routes_.end()) {
        response.status = 404;
        response.body = "not found\n";
      } else {
        const auto method_it = path_it->second.find(request.method);
        if (method_it == path_it->second.end()) {
          response.status = 405;
          response.body = "method not allowed\n";
        } else {
          response = method_it->second(request);
        }
      }
    }
  }

  std::string reply = StrFormat("HTTP/1.0 %d %s\r\n", response.status,
                                ReasonPhrase(response.status));
  reply += "Content-Type: " + response.content_type + "\r\n";
  reply += StrFormat("Content-Length: %zu\r\n", response.body.size());
  reply += "Connection: close\r\n\r\n";
  reply += response.body;
  (void)net::WriteAll(conn.fd(), reply.data(), reply.size());
}

AdminServer::Handler MakeControlHandler(ControlHooks hooks) {
  return [hooks = std::move(hooks)](const HttpRequest& request) {
    HttpResponse response;
    const auto pairs = ParseFormPairs(
        request.body.empty() ? std::string_view(request.query)
                             : std::string_view(request.body));
    if (pairs.empty()) {
      response.status = 400;
      response.body =
          "no toggles; expected trace=on|off, log_level=0..4, "
          "metrics_interval_ms=N\n";
      return response;
    }
    // Validate every toggle before applying any, so a typo in a batch
    // does not leave the process half-reconfigured.
    for (const auto& [key, value] : pairs) {
      if (key == "trace") {
        if (value != "on" && value != "off") {
          response.status = 400;
          response.body = "trace must be on or off\n";
          return response;
        }
      } else if (key == "log_level") {
        if (!ParseLogLevel(value.c_str()).has_value()) {
          response.status = 400;
          response.body = "log_level must be an integer in [0,4]\n";
          return response;
        }
      } else if (key == "metrics_interval_ms") {
        auto parsed = ParseInt64(value);
        if (!parsed.ok() || *parsed <= 0) {
          response.status = 400;
          response.body = "metrics_interval_ms must be a positive integer\n";
          return response;
        }
        if (!hooks.set_metrics_interval_ms) {
          response.status = 400;
          response.body = "metrics_interval_ms is not supported here\n";
          return response;
        }
      } else {
        response.status = 400;
        response.body = "unknown toggle: " + key + "\n";
        return response;
      }
    }
    for (const auto& [key, value] : pairs) {
      if (key == "trace") {
        if (value == "on") {
          TraceRecorder::Options options;
          options.buffer_events = hooks.trace_buffer_events;
          const bool armed = TraceRecorder::Get().Start(options);
          response.body += armed ? "trace: armed\n" : "trace: already on\n";
        } else {
          const TraceDump dump = TraceRecorder::Get().Stop();
          if (!hooks.trace_out.empty()) {
            if (auto st = WriteChromeTrace(dump, hooks.trace_out); !st.ok()) {
              response.body += "trace: " + st.ToString() + "\n";
            } else {
              response.body += StrFormat(
                  "trace: wrote %zu span(s) to %s (%llu dropped)\n",
                  dump.events.size(), hooks.trace_out.c_str(),
                  static_cast<unsigned long long>(dump.dropped));
            }
          } else {
            response.body += StrFormat(
                "trace: stopped, %zu span(s) discarded (no --trace-out)\n",
                dump.events.size());
          }
        }
      } else if (key == "log_level") {
        SetLogLevel(*ParseLogLevel(value.c_str()));
        response.body += "log_level: " + value + "\n";
      } else if (key == "metrics_interval_ms") {
        hooks.set_metrics_interval_ms(*ParseInt64(value));
        response.body += "metrics_interval_ms: " + value + "\n";
      }
    }
    return response;
  };
}

}  // namespace frt::obs
