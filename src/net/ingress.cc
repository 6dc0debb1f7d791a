#include "net/ingress.h"

#include <sys/socket.h>

#include <chrono>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "stream/ingest.h"

namespace frt::net {

namespace {

/// Best-effort extraction of the feed id from a kTrajectory payload whose
/// full decode failed: if the id itself is readable and valid the fault can
/// be pinned on that feed; otherwise it degrades to a connection-level
/// fault, so an invalid name never becomes a feed.
std::string PeekFeedId(std::string_view payload) {
  if (payload.size() < 2) return {};
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const size_t len = static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
  if (payload.size() < 2 + len) return {};
  const std::string_view feed = payload.substr(2, len);
  return IsValidFeedId(feed) ? std::string(feed) : std::string();
}

}  // namespace

IngressServer::IngressServer(Options options, OfferFn offer,
                             QuarantineFn quarantine)
    : options_(std::move(options)),
      offer_(std::move(offer)),
      quarantine_(std::move(quarantine)) {
  if (options_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    options_.registry = owned_registry_.get();
  }
  obs::Registry* registry = options_.registry;
  connections_total_ = registry->GetCounter(
      "frt_ingress_connections_total", "Edge connections accepted");
  frames_total_ = registry->GetCounter(
      "frt_ingress_frames_total", "Frames fully read and CRC-verified");
  trajectories_total_ = registry->GetCounter(
      "frt_ingress_trajectories_total",
      "Trajectories decoded and offered downstream");
  quarantine_total_ = registry->GetCounter(
      "frt_ingress_quarantine_events_total",
      "Per-feed quarantine reports raised by ingress readers");
  accept_retries_ = registry->GetCounter(
      "frt_ingress_accept_retries_total",
      "Transient ingress accept() failures retried with backoff");
}

IngressServer::~IngressServer() {
  Stop();
  Wait();
}

Status IngressServer::Start() {
  if (started_) return Status::FailedPrecondition("ingress already started");
  auto listener = ListenOn(options_.endpoint, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void IngressServer::Wait() {
  if (!started_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
}

IngressServer::Stats IngressServer::stats() const {
  Stats stats;
  stats.connections = connections_total_->value();
  stats.frames = frames_total_->value();
  stats.trajectories = trajectories_total_->value();
  stats.quarantine_events = quarantine_total_->value();
  return stats;
}

void IngressServer::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stop_.store(true);
  listener_.ShutdownBoth();
  for (const int fd : live_fds_) ::shutdown(fd, SHUT_RD);
}

void IngressServer::AcceptLoop() {
  obs::SetTraceThreadName("ingress-accept");
  size_t accepted = 0;
  ServeAccepts(listener_, accept_retries_, "ingress",
               [this, &accepted](Socket conn) {
                 {
                   std::lock_guard<std::mutex> lock(mu_);
                   if (stop_.load()) return false;  // Stop() never saw it
                   live_fds_.insert(conn.fd());
                 }
                 const size_t index = ++accepted;
                 connections_total_->Inc();
                 readers_.emplace_back(&IngressServer::ReadConnection, this,
                                       std::move(conn), index);
                 return options_.max_connections == 0 ||
                        accepted < options_.max_connections;
               });
  std::lock_guard<std::mutex> lock(mu_);
  listener_.Close();
  UnlinkIfUnix(options_.endpoint);
}

void IngressServer::ReadConnection(Socket conn, size_t index) {
  obs::SetTraceThreadName("ingress-" + std::to_string(index));
  std::string peer = "conn-" + std::to_string(index);
  // Feeds this connection has delivered: on a framing-level fault every
  // one of them is suspect (the corrupt stream may have already fed them).
  std::vector<std::string> feeds_seen;
  std::unordered_set<std::string> seen_set;
  std::unordered_set<std::string> quarantined;
  std::string fatal;  // framing-level fault, tears the connection down
  bool clean_bye = false;

  char header_buf[kFrameHeaderSize];
  std::string payload;

  const auto quarantine_one = [&](const std::string& feed,
                                  const std::string& reason) {
    if (!quarantined.insert(feed).second) return;
    quarantine_total_->Inc();
    quarantine_(feed, reason);
  };

  while (!clean_bye && fatal.empty() && !stop_.load()) {
    const auto read_start = std::chrono::steady_clock::now();
    auto got_header = ReadFull(conn.fd(), header_buf, kFrameHeaderSize);
    if (!got_header.ok()) {
      fatal = got_header.status().message();
      break;
    }
    if (!*got_header) {
      // EOF at a frame boundary but before kBye: the peer died (or was
      // killed) mid-stream. Its feeds may be missing trajectories.
      fatal = "peer '" + peer + "' disconnected without bye";
      break;
    }
    auto header = DecodeFrameHeader(header_buf);
    if (!header.ok()) {
      fatal = header.status().message();
      break;
    }
    payload.resize(header->payload_len);
    if (header->payload_len > 0) {
      auto got_payload =
          ReadFull(conn.fd(), payload.data(), payload.size());
      if (!got_payload.ok() || !*got_payload) {
        fatal = got_payload.ok()
                    ? "connection closed before frame payload"
                    : got_payload.status().message();
        break;
      }
    }
    const auto decode_start = std::chrono::steady_clock::now();
    obs::EmitSpan("frame_read", obs::SpanCategory::kNet, {}, read_start,
                  decode_start);

    if (const Status crc = VerifyFramePayload(*header, payload);
        !crc.ok()) {
      obs::EmitSpan("frame_decode", obs::SpanCategory::kNet, {},
                    decode_start, std::chrono::steady_clock::now());
      fatal = crc.message();
      break;
    }
    frames_total_->Inc();

    switch (header->type) {
      case FrameType::kHello:
        if (!payload.empty()) peer = payload;
        FRT_LOG(Info) << "ingress: hello from '" << peer << "'";
        break;
      case FrameType::kBye:
        clean_bye = true;
        break;
      case FrameType::kTrajectory: {
        auto decoded = DecodeTrajectoryPayload(payload);
        obs::EmitSpan("frame_decode", obs::SpanCategory::kNet,
                      decoded.ok() ? std::string_view(decoded->feed)
                                   : std::string_view{},
                      decode_start, std::chrono::steady_clock::now());
        if (!decoded.ok()) {
          // Semantic fault with the stream still aligned: quarantine only
          // the feed the payload names — if even that is unreadable, the
          // whole connection is suspect.
          const std::string feed = PeekFeedId(payload);
          if (feed.empty()) {
            fatal = decoded.status().message();
          } else {
            quarantine_one(feed, decoded.status().message());
          }
          break;
        }
        if (seen_set.insert(decoded->feed).second) {
          feeds_seen.push_back(decoded->feed);
        }
        if (quarantined.count(decoded->feed) != 0) break;  // already dead
        trajectories_total_->Inc();
        if (!offer_(decoded->feed, std::move(decoded->trajectory))) {
          // Service is finishing; stop draining this socket.
          clean_bye = true;
        }
        break;
      }
    }
  }
  if (!clean_bye && stop_.load()) {
    // Stop() ended the stream, between frames or by the shutdown(2) that
    // cut a read short: like a disconnect without kBye, the feeds this
    // connection delivered may be missing trajectories. A connection that
    // delivered none lost nothing, so it is a clean stop.
    if (feeds_seen.empty()) {
      FRT_LOG(Info) << "ingress: stopped connection from '" << peer
                    << "' before it delivered a feed";
      fatal.clear();
    } else {
      fatal = "ingress stopped before bye from '" + peer + "'";
    }
  }

  if (!fatal.empty()) {
    // Framing-level fault: the stream offset is untrustworthy, so every
    // feed this connection delivered is quarantined and the socket dies.
    FRT_LOG(Warning) << "ingress: fatal frame error on connection from '"
                     << peer << "': " << fatal;
    for (const std::string& feed : feeds_seen) {
      quarantine_one(feed, "connection from '" + peer + "': " + fatal);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(conn.fd());
  conn.Close();
}

}  // namespace frt::net
