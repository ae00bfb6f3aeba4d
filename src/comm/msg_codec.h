#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lmp::comm {

/// Message kinds multiplexed over the one-sided channels. Together with
/// the direction index they identify a logical channel; at most two
/// messages per (kind, direction, sender) are in flight at a time, which
/// the engine's stage ordering guarantees (see NoticeDispatcher).
enum class MsgKind : int {
  kBorder = 0,    ///< border stage: ghost atom positions + tags
  kBorderAck,     ///< piggyback reply: ghost offset in receiver's x array
  kForward,       ///< forward stage: updated ghost positions
  kReverse,       ///< reverse stage: ghost forces back to owners
  kScalarFwd,     ///< EAM fp owner -> ghosts
  kScalarRev,     ///< EAM rho ghosts -> owner
  kExchange,      ///< atom migration on rebuild steps
  kRetransmitReq, ///< reliability NACK: "re-send (kind, dir) seq N"
  kCount
};

inline const char* kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::kBorder: return "border";
    case MsgKind::kBorderAck: return "border-ack";
    case MsgKind::kForward: return "forward";
    case MsgKind::kReverse: return "reverse";
    case MsgKind::kScalarFwd: return "scalar-fwd";
    case MsgKind::kScalarRev: return "scalar-rev";
    case MsgKind::kExchange: return "exchange";
    case MsgKind::kRetransmitReq: return "retransmit-req";
    default: return "?";
  }
}

/// 64-bit piggyback descriptor word carried in every put's edata:
///   bits 0..31  value (atom count, or ghost offset for kBorderAck)
///   bits 32..33 ring-buffer slot the payload was written to
///   bits 34..39 direction index (sender's perspective)
///   bits 40..43 message kind
///   bits 44..51 per-channel sequence number (reliability)
///   bits 52..59 CRC-8 over value + payload (reliability)
struct Edata {
  MsgKind kind;
  int dir;
  int slot;
  std::uint32_t value;
  std::uint8_t seq = 0;
  std::uint8_t crc = 0;

  std::uint64_t encode() const {
    return (static_cast<std::uint64_t>(crc) << 52) |
           (static_cast<std::uint64_t>(seq) << 44) |
           (static_cast<std::uint64_t>(kind) << 40) |
           (static_cast<std::uint64_t>(dir) << 34) |
           (static_cast<std::uint64_t>(slot) << 32) | value;
  }
  static Edata decode(std::uint64_t w) {
    return {static_cast<MsgKind>((w >> 40) & 0xF),
            static_cast<int>((w >> 34) & 0x3F), static_cast<int>((w >> 32) & 0x3),
            static_cast<std::uint32_t>(w & 0xFFFFFFFFu),
            static_cast<std::uint8_t>((w >> 44) & 0xFF),
            static_cast<std::uint8_t>((w >> 52) & 0xFF)};
  }
};

/// CRC-8 (poly 0x07, init 0) — cheap enough to run per message, and the
/// injector's single-byte/-bit flips can never cancel out under it.
inline std::uint8_t crc8(std::uint8_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = static_cast<std::uint8_t>((crc << 1) ^ ((crc & 0x80) ? 0x07 : 0));
    }
  }
  return crc;
}

/// Checksum guarding one message: the 32-bit descriptor value (little
/// endian) followed by the payload bytes, if any. Piggyback-only messages
/// pass bytes == 0 and are still protected against value-bit flips.
inline std::uint8_t payload_crc(std::uint32_t value, const void* payload,
                                std::size_t bytes) {
  std::uint8_t le[4] = {static_cast<std::uint8_t>(value),
                        static_cast<std::uint8_t>(value >> 8),
                        static_cast<std::uint8_t>(value >> 16),
                        static_cast<std::uint8_t>(value >> 24)};
  std::uint8_t c = crc8(0, le, sizeof(le));
  if (bytes > 0) c = crc8(c, payload, bytes);
  return c;
}

/// CRC-32 (reflected, poly 0xEDB88320) — the integrity check shared by
/// checkpoint files, the job journal, and wire frames. The classic check
/// value crc32("123456789") == 0xCBF43926 is pinned by tests.
/// `crc32_update` is the streaming form: seed with kCrc32Init, feed byte
/// ranges in order, finish with ~crc.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

inline std::uint32_t crc32(const void* data, std::size_t len) {
  return ~crc32_update(kCrc32Init, data, len);
}

// --- length-prefixed frames ---------------------------------------------
//
// The byte-stream framing used wherever messages travel outside the
// fabric's fixed-slot channels: the job server's request/response
// protocol and the durable job journal. Layout (host-endian, like the
// checkpoint format):
//
//   u32 magic   "LMPF" (0x464D504C little-endian on x86)
//   u16 type    application-defined frame type
//   u16 flags   reserved, must be 0
//   u32 length  payload bytes that follow the header
//   u32 crc     CRC-32 over magic..length header fields + payload
//
// Decoding is structured and total: a truncated or length-corrupted
// frame yields a status, never a read past the buffer.

inline constexpr std::uint32_t kFrameMagic = 0x464D504Cu;  // "LMPF"
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on one frame's payload. Anything larger is a corrupted
/// length field (or an abusive peer) — decode refuses it instead of
/// allocating or scanning unbounded memory.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

enum class FrameStatus {
  kOk,        ///< one whole valid frame decoded
  kNeedMore,  ///< prefix of a valid frame; read more bytes and retry
  kBadMagic,  ///< stream out of sync (or not a frame stream at all)
  kOversized, ///< length field exceeds kMaxFramePayload
  kBadCrc,    ///< header+payload checksum mismatch
};

inline const char* frame_status_name(FrameStatus s) {
  switch (s) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kNeedMore: return "need-more";
    case FrameStatus::kBadMagic: return "bad-magic";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kBadCrc: return "bad-crc";
  }
  return "?";
}

/// Result of decoding one frame from a byte buffer. `payload` points
/// into the caller's buffer (valid while the buffer lives); `consumed`
/// is how many bytes the frame occupied and is only nonzero for kOk —
/// every error status leaves the stream position untouched so the caller
/// decides whether to resync or give up.
struct FrameView {
  FrameStatus status = FrameStatus::kNeedMore;
  std::uint16_t type = 0;
  const char* payload = nullptr;
  std::size_t payload_len = 0;
  std::size_t consumed = 0;

  bool ok() const { return status == FrameStatus::kOk; }
};

/// Append one frame (header + payload) to `out`.
inline void append_frame(std::vector<char>& out, std::uint16_t type,
                         const void* payload, std::size_t len) {
  char hdr[kFrameHeaderBytes];
  const std::uint32_t magic = kFrameMagic;
  const std::uint16_t flags = 0;
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(hdr, &magic, 4);
  std::memcpy(hdr + 4, &type, 2);
  std::memcpy(hdr + 6, &flags, 2);
  std::memcpy(hdr + 8, &len32, 4);
  std::uint32_t c = crc32_update(kCrc32Init, hdr, 12);
  c = ~crc32_update(c, payload, len);
  std::memcpy(hdr + 12, &c, 4);
  out.insert(out.end(), hdr, hdr + kFrameHeaderBytes);
  const char* pc = static_cast<const char*>(payload);
  if (len > 0) out.insert(out.end(), pc, pc + len);
}

/// Decode the frame starting at `data`. Total: never reads past
/// `data + len`, whatever the bytes say.
inline FrameView decode_frame(const char* data, std::size_t len) {
  FrameView v;
  if (len < kFrameHeaderBytes) {
    // Not enough bytes to even validate the magic — but if what we do
    // have already disagrees with it, say so instead of stalling a
    // stream that can never become valid.
    std::uint32_t magic_prefix = kFrameMagic;
    std::memcpy(&magic_prefix, data, len < 4 ? len : 4);
    if (len >= 4 && magic_prefix != kFrameMagic) {
      v.status = FrameStatus::kBadMagic;
      return v;
    }
    v.status = FrameStatus::kNeedMore;
    return v;
  }
  std::uint32_t magic, length, stored_crc;
  std::uint16_t type, flags;
  std::memcpy(&magic, data, 4);
  std::memcpy(&type, data + 4, 2);
  std::memcpy(&flags, data + 6, 2);
  std::memcpy(&length, data + 8, 4);
  std::memcpy(&stored_crc, data + 12, 4);
  if (magic != kFrameMagic) {
    v.status = FrameStatus::kBadMagic;
    return v;
  }
  (void)flags;  // reserved; any flip is caught by the CRC
  if (length > kMaxFramePayload) {
    v.status = FrameStatus::kOversized;
    return v;
  }
  if (len < kFrameHeaderBytes + length) {
    v.status = FrameStatus::kNeedMore;
    return v;
  }
  // Recompute the CRC exactly as append_frame produced it: header
  // prefix (magic..length) then payload, one logical byte range.
  std::uint32_t c = crc32_update(kCrc32Init, data, 12);
  c = ~crc32_update(c, data + kFrameHeaderBytes, length);
  if (c != stored_crc) {
    v.status = FrameStatus::kBadCrc;
    return v;
  }
  v.status = FrameStatus::kOk;
  v.type = type;
  v.payload = data + kFrameHeaderBytes;
  v.payload_len = length;
  v.consumed = kFrameHeaderBytes + length;
  return v;
}

/// Bit-cast an int64 tag into a double payload slot and back (`message
/// combine`, Sec. 3.5.1: header fields ride inside the payload so arrays
/// of unknown length need only one message).
inline double tag_to_double(std::int64_t tag) {
  double d;
  std::memcpy(&d, &tag, sizeof(d));
  return d;
}
inline std::int64_t double_to_tag(double d) {
  std::int64_t t;
  std::memcpy(&t, &d, sizeof(t));
  return t;
}

}  // namespace lmp::comm
