#include "net/frame.h"

#include <cmath>
#include <cstring>

namespace frt::net {

namespace {

// Little-endian scalar append/read. memcpy keeps it alignment-safe; the
// byte swizzle keeps it endian-safe without <endian.h>.

void AppendU16(std::string* out, uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff),
                         static_cast<char>((v >> 8) & 0xff)};
  out->append(bytes, 2);
}

void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 8);
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Cursor over a payload; every read checks the remaining length.
struct Reader {
  const unsigned char* p;
  size_t remaining;

  bool ReadU16(uint16_t* v) {
    if (remaining < 2) return false;
    *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    remaining -= 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    remaining -= 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
    p += 8;
    remaining -= 8;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool ReadBytes(std::string* out, size_t n) {
    if (remaining < n) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    remaining -= n;
    return true;
  }
};

/// Reflected IEEE CRC-32 table, built once.
const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static const bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  AppendU32(out, kFrameMagic);
  out->push_back(static_cast<char>(kFrameVersion));
  out->push_back(static_cast<char>(type));
  AppendU16(out, 0);  // reserved
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

Result<FrameHeader> DecodeFrameHeader(const void* buf) {
  Reader r{static_cast<const unsigned char*>(buf), kFrameHeaderSize};
  uint32_t magic = 0;
  (void)r.ReadU32(&magic);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not an FRT stream)");
  }
  FrameHeader header;
  header.version = r.p[0];
  const uint8_t type = r.p[1];
  r.p += 2;
  r.remaining -= 2;
  if (header.version != kFrameVersion) {
    return Status::InvalidArgument("unsupported frame version " +
                                   std::to_string(header.version));
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kBye)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  uint16_t reserved = 0;
  (void)r.ReadU16(&reserved);
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved frame header bits");
  }
  (void)r.ReadU32(&header.payload_len);
  (void)r.ReadU32(&header.payload_crc);
  if (header.payload_len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "oversized frame payload (" + std::to_string(header.payload_len) +
        " bytes, limit " + std::to_string(kMaxFramePayload) + ")");
  }
  return header;
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::string_view payload) {
  if (payload.size() != header.payload_len) {
    return Status::InvalidArgument("frame payload length mismatch");
  }
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != header.payload_crc) {
    return Status::IOError("frame CRC mismatch (corrupt frame)");
  }
  return Status::OK();
}

std::string EncodeTrajectoryPayload(std::string_view feed,
                                    const Trajectory& trajectory) {
  std::string out;
  out.reserve(2 + feed.size() + 12 + trajectory.size() * 24);
  AppendU16(&out, static_cast<uint16_t>(feed.size()));
  out.append(feed.data(), feed.size());
  AppendI64(&out, trajectory.id());
  AppendU32(&out, static_cast<uint32_t>(trajectory.size()));
  for (const TimedPoint& tp : trajectory.points()) {
    AppendF64(&out, tp.p.x);
    AppendF64(&out, tp.p.y);
    AppendI64(&out, tp.t);
  }
  return out;
}

Result<FeedTrajectory> DecodeTrajectoryPayload(std::string_view payload) {
  Reader r{reinterpret_cast<const unsigned char*>(payload.data()),
           payload.size()};
  uint16_t feed_len = 0;
  FeedTrajectory out;
  if (!r.ReadU16(&feed_len) || !r.ReadBytes(&out.feed, feed_len)) {
    return Status::InvalidArgument("truncated trajectory frame (feed id)");
  }
  if (out.feed.empty()) {
    return Status::InvalidArgument("trajectory frame with empty feed id");
  }
  int64_t id = 0;
  uint32_t points = 0;
  if (!r.ReadI64(&id) || !r.ReadU32(&points)) {
    return Status::InvalidArgument("truncated trajectory frame for feed '" +
                                   out.feed + "'");
  }
  if (r.remaining != static_cast<size_t>(points) * 24) {
    return Status::InvalidArgument(
        "trajectory frame for feed '" + out.feed + "' declares " +
        std::to_string(points) + " point(s) but carries " +
        std::to_string(r.remaining) + " payload byte(s)");
  }
  out.trajectory = Trajectory(id);
  for (uint32_t i = 0; i < points; ++i) {
    double x = 0.0;
    double y = 0.0;
    int64_t t = 0;
    (void)r.ReadF64(&x);
    (void)r.ReadF64(&y);
    (void)r.ReadI64(&t);
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument(
          "trajectory frame for feed '" + out.feed +
          "' carries a non-finite coordinate at point " + std::to_string(i));
    }
    out.trajectory.Append(Point{x, y}, t);
  }
  return out;
}

}  // namespace frt::net
