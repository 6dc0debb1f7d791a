// Wire framing and ingress transport coverage (src/net): frame encode /
// decode round trips (bit-identical doubles included), strict header and
// payload validation, endpoint parsing, UDS and TCP loopbacks with
// partial-read semantics, and the IngressServer's two-tier quarantine
// contract — framing faults kill the connection and quarantine every feed
// it delivered, semantic faults quarantine only the feed named in the
// payload while the stream keeps going.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/ingress.h"
#include "net/socket.h"
#include "traj/trajectory.h"

namespace frt::net {
namespace {

Trajectory MakeTrajectory(TrajId id, size_t points) {
  Trajectory t(id);
  for (size_t i = 0; i < points; ++i) {
    // Deliberately awkward doubles: round-tripping must be bit-exact, not
    // printf-exact.
    t.Append({0.1 * static_cast<double>(i) + 1e-13, -7.25e3 / (1.0 + i)},
             static_cast<int64_t>(i) * 37);
  }
  return t;
}

// ---------------------------------------------------------------- frame

TEST(FrameTest, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(FrameTest, FrameRoundTrips) {
  std::string wire;
  AppendFrame(&wire, FrameType::kHello, "edge-7");
  ASSERT_GE(wire.size(), kFrameHeaderSize);
  auto header = DecodeFrameHeader(wire.data());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, FrameType::kHello);
  EXPECT_EQ(header->version, kFrameVersion);
  ASSERT_EQ(header->payload_len, 6u);
  const std::string_view payload(wire.data() + kFrameHeaderSize, 6);
  EXPECT_TRUE(VerifyFramePayload(*header, payload).ok());
  EXPECT_EQ(payload, "edge-7");
}

TEST(FrameTest, HeaderRejectsFramingFaults) {
  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory, "x");
  auto corrupt = [&](size_t offset, char value) {
    std::string bad = wire;
    bad[offset] = value;
    return DecodeFrameHeader(bad.data());
  };
  EXPECT_FALSE(corrupt(0, 'X').ok()) << "bad magic must be rejected";
  EXPECT_FALSE(corrupt(4, 99).ok()) << "unknown version must be rejected";
  EXPECT_FALSE(corrupt(5, 0).ok()) << "unknown type must be rejected";
  EXPECT_FALSE(corrupt(6, 1).ok()) << "reserved bits must be zero";
  // Oversized length: rewrite the u32 at offset 8.
  std::string bad = wire;
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&bad[8], &huge, sizeof(huge));
  const auto oversized = DecodeFrameHeader(bad.data());
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsInvalidArgument());
}

TEST(FrameTest, CrcDetectsPayloadCorruption) {
  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("alpha", MakeTrajectory(3, 4)));
  auto header = DecodeFrameHeader(wire.data());
  ASSERT_TRUE(header.ok());
  std::string payload = wire.substr(kFrameHeaderSize);
  payload[payload.size() / 2] ^= static_cast<char>(0xFF);
  const Status st = VerifyFramePayload(*header, payload);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(FrameTest, TrajectoryPayloadRoundTripsBitIdentically) {
  const Trajectory original = MakeTrajectory(12345678901LL, 9);
  const std::string payload = EncodeTrajectoryPayload("feed/α", original);
  auto decoded = DecodeTrajectoryPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->feed, "feed/α");
  EXPECT_EQ(decoded->trajectory.id(), original.id());
  ASSERT_EQ(decoded->trajectory.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Bit-pattern equality, stricter than operator== (which NaNs would
    // break): the solo-vs-multiplexed bit-identity must survive the wire.
    uint64_t ax = 0, bx = 0, ay = 0, by = 0;
    std::memcpy(&ax, &original.points()[i].p.x, 8);
    std::memcpy(&bx, &decoded->trajectory.points()[i].p.x, 8);
    std::memcpy(&ay, &original.points()[i].p.y, 8);
    std::memcpy(&by, &decoded->trajectory.points()[i].p.y, 8);
    EXPECT_EQ(ax, bx);
    EXPECT_EQ(ay, by);
    EXPECT_EQ(original.points()[i].t, decoded->trajectory.points()[i].t);
  }
}

TEST(FrameTest, TrajectoryPayloadDecodeIsStrict) {
  const std::string good =
      EncodeTrajectoryPayload("beta", MakeTrajectory(1, 2));
  EXPECT_FALSE(DecodeTrajectoryPayload("").ok());
  EXPECT_FALSE(DecodeTrajectoryPayload(good.substr(0, good.size() - 1)).ok())
      << "truncated payload must be rejected";
  EXPECT_FALSE(DecodeTrajectoryPayload(good + std::string(1, '\0')).ok())
      << "trailing bytes must be rejected";
  // Empty feed id.
  const std::string empty_feed =
      EncodeTrajectoryPayload("", MakeTrajectory(1, 2));
  EXPECT_FALSE(DecodeTrajectoryPayload(empty_feed).ok());
  // Point count that disagrees with the remaining bytes: bump the u32
  // count that sits after the feed block and the i64 id.
  std::string bad_count = good;
  const size_t count_offset = 2 + 4 /* "beta" */ + 8;
  uint32_t count = 0;
  std::memcpy(&count, bad_count.data() + count_offset, 4);
  ++count;
  std::memcpy(&bad_count[count_offset], &count, 4);
  const auto mismatched = DecodeTrajectoryPayload(bad_count);
  ASSERT_FALSE(mismatched.ok());
  // The feed id was readable, so the error names it — that is what lets
  // the ingress quarantine just this feed.
  EXPECT_NE(mismatched.status().ToString().find("beta"), std::string::npos)
      << mismatched.status().ToString();
}

TEST(FrameTest, NonFiniteCoordinateIsASemanticFault) {
  // A CRC-clean frame can still carry NaN or inf; decoding rejects it and
  // names the feed, so the ingress quarantines only that feed.
  const double bad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (const double value : bad) {
    for (const bool in_x : {true, false}) {
      Trajectory t = MakeTrajectory(7, 3);
      (in_x ? t[1].p.x : t[1].p.y) = value;
      const auto decoded =
          DecodeTrajectoryPayload(EncodeTrajectoryPayload("gamma", t));
      ASSERT_FALSE(decoded.ok()) << value << (in_x ? " in x" : " in y");
      EXPECT_TRUE(decoded.status().IsInvalidArgument());
      EXPECT_NE(decoded.status().ToString().find("gamma"), std::string::npos)
          << decoded.status().ToString();
    }
  }
}

// -------------------------------------------------------------- endpoint

TEST(SocketTest, ParseEndpointAcceptsBothFamilies) {
  auto unix_ep = ParseEndpoint("unix:/tmp/frt test.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep->path, "/tmp/frt test.sock");
  auto tcp_ep = ParseEndpoint("tcp:127.0.0.1:9042");
  ASSERT_TRUE(tcp_ep.ok());
  EXPECT_EQ(tcp_ep->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep->host, "127.0.0.1");
  EXPECT_EQ(tcp_ep->port, 9042);
}

TEST(SocketTest, ParseEndpointRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "unix:", "tcp:", "tcp:localhost", "tcp:localhost:",
        "tcp::1234", "tcp:host:notaport", "tcp:host:70000", "tcp:host:-1",
        "tcp:host:12x", "http:foo", "/tmp/plain-path"}) {
    EXPECT_FALSE(ParseEndpoint(spec).ok()) << "accepted: " << spec;
  }
}

// -------------------------------------------------------- loopback I/O

std::string TestSocketPath(const char* tag) {
  return ::testing::TempDir() + "frt_net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SocketTest, UnixLoopbackRoundTripAndCleanEof) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("rt");
  auto listener = ListenOn(endpoint);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread client([&] {
    auto conn = ConnectTo(endpoint);
    ASSERT_TRUE(conn.ok());
    const std::string msg = "ping";
    ASSERT_TRUE(WriteAll(conn->fd(), msg.data(), msg.size()).ok());
    // Destructor closes: the server sees clean EOF after 4 bytes.
  });
  auto accepted = Accept(*listener);
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(accepted->valid());
  char buf[4];
  auto got = ReadFull(accepted->fd(), buf, 4);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(std::string(buf, 4), "ping");
  auto eof = ReadFull(accepted->fd(), buf, 4);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_FALSE(*eof) << "clean EOF before the first byte must not error";
  client.join();
  UnlinkIfUnix(endpoint);
}

TEST(SocketTest, DisconnectMidMessageIsAnError) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("cut");
  auto listener = ListenOn(endpoint);
  ASSERT_TRUE(listener.ok());
  std::thread client([&] {
    auto conn = ConnectTo(endpoint);
    ASSERT_TRUE(conn.ok());
    const std::string partial = "abc";  // promises nothing, sends 3 bytes
    ASSERT_TRUE(WriteAll(conn->fd(), partial.data(), partial.size()).ok());
  });
  auto accepted = Accept(*listener);
  ASSERT_TRUE(accepted.ok());
  char buf[8];
  auto got = ReadFull(accepted->fd(), buf, 8);  // wants 8, peer sent 3
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
  client.join();
  UnlinkIfUnix(endpoint);
}

TEST(SocketTest, TcpLoopbackWithEphemeralPort) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;  // kernel-assigned
  auto listener = ListenOn(endpoint);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = LocalPort(*listener);
  ASSERT_TRUE(port.ok());
  ASSERT_GT(*port, 0);
  Endpoint target = endpoint;
  target.port = *port;
  std::thread client([&] {
    auto conn = ConnectTo(target);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    std::string wire;
    AppendFrame(&wire, FrameType::kBye, {});
    ASSERT_TRUE(WriteAll(conn->fd(), wire.data(), wire.size()).ok());
  });
  auto accepted = Accept(*listener);
  ASSERT_TRUE(accepted.ok());
  char header_buf[kFrameHeaderSize];
  auto got = ReadFull(accepted->fd(), header_buf, kFrameHeaderSize);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  auto header = DecodeFrameHeader(header_buf);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kBye);
  client.join();
}

// --------------------------------------------------------------- ingress

struct IngressHarness {
  std::mutex mu;
  std::vector<std::pair<std::string, TrajId>> offered;
  std::vector<Trajectory> delivered;  // lockstep with `offered`
  std::vector<std::pair<std::string, std::string>> quarantined;

  OfferFn offer() {
    return [this](std::string feed, Trajectory t) {
      std::lock_guard<std::mutex> lock(mu);
      offered.emplace_back(std::move(feed), t.id());
      delivered.push_back(std::move(t));
      return true;
    };
  }
  QuarantineFn quarantine() {
    return [this](const std::string& feed, const std::string& reason) {
      std::lock_guard<std::mutex> lock(mu);
      quarantined.emplace_back(feed, reason);
    };
  }
};

/// One scripted edge connection: sends `wire` and closes.
void SendWire(const Endpoint& endpoint, const std::string& wire) {
  auto conn = ConnectTo(endpoint);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(WriteAll(conn->fd(), wire.data(), wire.size()).ok());
}

TEST(IngressTest, CleanSessionOffersEverythingAndQuarantinesNothing) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("clean");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  std::string wire;
  AppendFrame(&wire, FrameType::kHello, "edge-test");
  for (TrajId id = 0; id < 5; ++id) {
    AppendFrame(&wire, FrameType::kTrajectory,
                EncodeTrajectoryPayload(id % 2 == 0 ? "even" : "odd",
                                        MakeTrajectory(id, 3)));
  }
  AppendFrame(&wire, FrameType::kBye, {});
  SendWire(endpoint, wire);
  server.Wait();

  EXPECT_TRUE(harness.quarantined.empty());
  ASSERT_EQ(harness.offered.size(), 5u);
  EXPECT_EQ(harness.offered[0].first, "even");
  EXPECT_EQ(harness.offered[1].first, "odd");
  EXPECT_EQ(server.stats().connections, 1u);
  EXPECT_EQ(server.stats().trajectories, 5u);
  EXPECT_EQ(server.stats().quarantine_events, 0u);
}

TEST(IngressTest, CorruptFrameQuarantinesEveryFeedOnTheConnection) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("crc");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("a", MakeTrajectory(1, 3)));
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("b", MakeTrajectory(2, 3)));
  // Third frame: payload byte flipped after the CRC — a framing fault.
  std::string corrupt;
  AppendFrame(&corrupt, FrameType::kTrajectory,
              EncodeTrajectoryPayload("a", MakeTrajectory(3, 3)));
  corrupt[kFrameHeaderSize] ^= static_cast<char>(0xFF);
  wire += corrupt;
  // A frame after the fault must never be delivered.
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("c", MakeTrajectory(4, 3)));
  SendWire(endpoint, wire);
  server.Wait();

  EXPECT_EQ(harness.offered.size(), 2u);
  std::set<std::string> quarantined_feeds;
  for (const auto& [feed, reason] : harness.quarantined) {
    quarantined_feeds.insert(feed);
    EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
  }
  EXPECT_EQ(quarantined_feeds, (std::set<std::string>{"a", "b"}))
      << "every feed the connection delivered — and nothing after the "
         "fault — must be quarantined";
}

TEST(IngressTest, SemanticDecodeFaultQuarantinesOnlyTheNamedFeed) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("sem");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("good", MakeTrajectory(1, 3)));
  // CRC-clean frame whose payload lies about its point count: semantic
  // fault, feed id readable -> only "bad" is quarantined, stream goes on.
  std::string lying = EncodeTrajectoryPayload("bad", MakeTrajectory(2, 3));
  const size_t count_offset = 2 + 3 /* "bad" */ + 8;
  uint32_t count = 0;
  std::memcpy(&count, lying.data() + count_offset, 4);
  ++count;
  std::memcpy(&lying[count_offset], &count, 4);
  AppendFrame(&wire, FrameType::kTrajectory, lying);
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("good", MakeTrajectory(3, 3)));
  AppendFrame(&wire, FrameType::kBye, {});
  SendWire(endpoint, wire);
  server.Wait();

  ASSERT_EQ(harness.offered.size(), 2u);
  EXPECT_EQ(harness.offered[0].second, 1);
  EXPECT_EQ(harness.offered[1].second, 3);
  ASSERT_EQ(harness.quarantined.size(), 1u);
  EXPECT_EQ(harness.quarantined[0].first, "bad");
}

TEST(IngressTest, NonFiniteFrameQuarantinesOnlyItsFeed) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("nan");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::pair<std::string, Trajectory>> siblings = {
      {"a", MakeTrajectory(1, 4)},
      {"b", MakeTrajectory(2, 5)},
      {"a", MakeTrajectory(3, 3)},
  };
  Trajectory poisoned = MakeTrajectory(9, 4);
  poisoned[2].p.x = std::nan("");
  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload(siblings[0].first, siblings[0].second));
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("bad", poisoned));
  for (size_t i = 1; i < siblings.size(); ++i) {
    AppendFrame(&wire, FrameType::kTrajectory,
                EncodeTrajectoryPayload(siblings[i].first,
                                        siblings[i].second));
  }
  AppendFrame(&wire, FrameType::kBye, {});
  SendWire(endpoint, wire);
  server.Wait();

  ASSERT_EQ(harness.quarantined.size(), 1u);
  EXPECT_EQ(harness.quarantined[0].first, "bad");
  ASSERT_EQ(harness.offered.size(), siblings.size());
  for (size_t i = 0; i < siblings.size(); ++i) {
    EXPECT_EQ(harness.offered[i].first, siblings[i].first);
    // Same encoding = same bits in every coordinate and timestamp.
    EXPECT_EQ(EncodeTrajectoryPayload(siblings[i].first,
                                      harness.delivered[i]),
              EncodeTrajectoryPayload(siblings[i].first,
                                      siblings[i].second));
  }
}

TEST(IngressTest, DisconnectWithoutByeQuarantinesDeliveredFeeds) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("nobye");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  std::string wire;
  AppendFrame(&wire, FrameType::kHello, "dying-edge");
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("f", MakeTrajectory(1, 3)));
  SendWire(endpoint, wire);  // closes without a kBye
  server.Wait();

  EXPECT_EQ(harness.offered.size(), 1u);
  ASSERT_EQ(harness.quarantined.size(), 1u);
  EXPECT_EQ(harness.quarantined[0].first, "f");
  EXPECT_NE(harness.quarantined[0].second.find("dying-edge"),
            std::string::npos)
      << harness.quarantined[0].second;
}

TEST(IngressTest, TruncatedFrameMidHeaderQuarantines) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("trunc");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;
  options.max_connections = 1;
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());

  std::string wire;
  AppendFrame(&wire, FrameType::kTrajectory,
              EncodeTrajectoryPayload("t", MakeTrajectory(1, 3)));
  std::string full;
  AppendFrame(&full, FrameType::kTrajectory,
              EncodeTrajectoryPayload("t", MakeTrajectory(2, 3)));
  wire += full.substr(0, kFrameHeaderSize / 2);  // dies mid-header
  SendWire(endpoint, wire);
  server.Wait();

  EXPECT_EQ(harness.offered.size(), 1u);
  ASSERT_EQ(harness.quarantined.size(), 1u);
  EXPECT_EQ(harness.quarantined[0].first, "t");
}

TEST(IngressTest, StopUnblocksWaitWithoutConnections) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TestSocketPath("stop");
  IngressHarness harness;
  IngressServer::Options options;
  options.endpoint = endpoint;  // max_connections = 0: accept until Stop
  IngressServer server(options, harness.offer(), harness.quarantine());
  ASSERT_TRUE(server.Start().ok());
  std::thread stopper([&] { server.Stop(); });
  server.Wait();  // must return promptly
  stopper.join();
  EXPECT_EQ(server.stats().connections, 0u);
  EXPECT_TRUE(harness.offered.empty());
}

}  // namespace
}  // namespace frt::net
