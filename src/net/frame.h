// Wire framing for the distributed ingress tier.
//
// Every message on an edge -> aggregator connection is one length-prefixed
// binary frame with a versioned header and a per-frame CRC:
//
//   offset  size  field
//        0     4  magic "FRTN" (little-endian u32 0x4E545246)
//        4     1  version (kFrameVersion)
//        5     1  type (FrameType)
//        6     2  reserved, must be 0
//        8     4  payload length in bytes (little-endian u32)
//       12     4  CRC-32 (IEEE) of the payload (little-endian u32)
//       16     -  payload
//
// All multi-byte fields are little-endian regardless of host order.
// Design choices, in order of importance:
//
//   - Length prefix + bounded payload (kMaxFramePayload): the reader
//     always knows how many bytes the frame claims before trusting any of
//     them, and an absurd length (line noise, a non-FRT peer) is rejected
//     at the header instead of allocating gigabytes.
//   - Per-frame CRC: a flipped bit anywhere in the payload is detected at
//     the receiver, where it quarantines the offending feed instead of
//     poisoning the anonymized output (service/dispatcher.h).
//   - Versioned header: kFrameVersion bumps on any layout change, and a
//     reader refuses versions it does not speak — no silent
//     reinterpretation across rolling upgrades.
//
// A framing-level error (bad magic, unknown version/type, oversized
// length, CRC mismatch) is NOT recoverable: the stream offset can no
// longer be trusted, so the connection must be torn down. A frame that
// passes the CRC but fails semantic payload decoding leaves the stream
// aligned — only the feed it names is affected.
//
// The trajectory payload (FrameType::kTrajectory) is
//
//   u16 feed-id length, feed-id bytes,
//   i64 trajectory id, u32 point count,
//   per point: f64 x, f64 y, i64 t   (doubles as IEEE-754 bit patterns)
//
// so a trajectory round-trips bit-identically — the solo-vs-multiplexed
// bit-identity guarantee must survive the wire.

#ifndef FRT_NET_FRAME_H_
#define FRT_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "traj/trajectory.h"

namespace frt::net {

inline constexpr uint32_t kFrameMagic = 0x4E545246u;  // "FRTN" on the wire
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;
/// Frames larger than this are rejected at the header — nothing the edge
/// sends legitimately comes close (one trajectory frame is ~24 B/point).
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

enum class FrameType : uint8_t {
  /// Connection preamble: payload is the peer's display name (diagnostics
  /// only; feeds are named per trajectory frame).
  kHello = 1,
  /// One trajectory of one feed (see payload layout above).
  kTrajectory = 2,
  /// Clean end of stream; the sender is done and will close.
  kBye = 3,
};

struct FrameHeader {
  uint8_t version = kFrameVersion;
  FrameType type = FrameType::kTrajectory;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// A decoded kTrajectory payload.
struct FeedTrajectory {
  std::string feed;
  Trajectory trajectory{0};
};

/// \brief CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
uint32_t Crc32(const void* data, size_t size);

/// \brief Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, FrameType type, std::string_view payload);

/// \brief Decodes and validates a 16-byte header. InvalidArgument on bad
/// magic, unknown version or type, nonzero reserved bits, or a payload
/// length above kMaxFramePayload — all framing-level (fatal to the
/// connection).
Result<FrameHeader> DecodeFrameHeader(const void* buf);

/// \brief Verifies `payload` against the header's CRC. A mismatch is a
/// framing-level error (DataLoss would fit; IOError is what the Status
/// vocabulary has).
Status VerifyFramePayload(const FrameHeader& header,
                          std::string_view payload);

/// \brief Serializes one trajectory of `feed` as a kTrajectory payload.
std::string EncodeTrajectoryPayload(std::string_view feed,
                                    const Trajectory& trajectory);

/// \brief Strictly decodes a kTrajectory payload: truncation, an empty
/// feed id, a point count that disagrees with the payload length,
/// trailing bytes or a non-finite (NaN, inf) coordinate are
/// InvalidArgument. The stream itself stays aligned
/// (the CRC already passed), so the caller quarantines only the feed —
/// when the feed id is decodable, it is reported in the error message.
Result<FeedTrajectory> DecodeTrajectoryPayload(std::string_view payload);

}  // namespace frt::net

#endif  // FRT_NET_FRAME_H_
