#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/msg_codec.h"

namespace lmp::comm {
namespace {

TEST(Edata, RoundTripAllFields) {
  for (int kind = 0; kind < static_cast<int>(MsgKind::kCount); ++kind) {
    for (int dir : {0, 1, 13, 25}) {
      for (int slot : {0, 1, 2, 3}) {
        const Edata e{static_cast<MsgKind>(kind), dir, slot, 0xDEADBEEF};
        const Edata d = Edata::decode(e.encode());
        EXPECT_EQ(d.kind, e.kind);
        EXPECT_EQ(d.dir, e.dir);
        EXPECT_EQ(d.slot, e.slot);
        EXPECT_EQ(d.value, e.value);
      }
    }
  }
}

TEST(Edata, MaxValueSurvives) {
  const Edata e{MsgKind::kExchange, 25, 3, 0xFFFFFFFFu};
  const Edata d = Edata::decode(e.encode());
  EXPECT_EQ(d.value, 0xFFFFFFFFu);
  EXPECT_EQ(d.dir, 25);
}

TEST(Edata, DistinctChannelsDistinctWords) {
  const Edata a{MsgKind::kBorder, 3, 0, 7};
  const Edata b{MsgKind::kForward, 3, 0, 7};
  const Edata c{MsgKind::kBorder, 4, 0, 7};
  EXPECT_NE(a.encode(), b.encode());
  EXPECT_NE(a.encode(), c.encode());
}

TEST(TagCast, RoundTripsInt64) {
  for (std::int64_t tag : {0L, 1L, -1L, 1234567890123L, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(double_to_tag(tag_to_double(tag)), tag);
  }
}

// --- frame codec ---------------------------------------------------------

TEST(Crc32, KnownVectors) {
  const char msg[] = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

std::vector<char> sample_frame(std::uint16_t type = 7,
                               const std::string& payload = "hello frames") {
  std::vector<char> buf;
  append_frame(buf, type, payload.data(), payload.size());
  return buf;
}

TEST(Frame, RoundTrip) {
  const std::string payload = "thermo chunk: step 10 temp 1.44";
  std::vector<char> buf = sample_frame(42, payload);
  const FrameView v = decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(v.ok()) << frame_status_name(v.status);
  EXPECT_EQ(v.type, 42);
  EXPECT_EQ(std::string(v.payload, v.payload_len), payload);
  EXPECT_EQ(v.consumed, buf.size());
}

TEST(Frame, EmptyPayloadRoundTrip) {
  std::vector<char> buf;
  append_frame(buf, 3, nullptr, 0);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes);
  const FrameView v = decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.type, 3);
  EXPECT_EQ(v.payload_len, 0u);
}

TEST(Frame, BackToBackFramesConsumeExactly) {
  std::vector<char> buf = sample_frame(1, "first");
  const std::size_t first_len = buf.size();
  append_frame(buf, 2, "second!", 7);
  const FrameView a = decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.consumed, first_len);
  const FrameView b = decode_frame(buf.data() + a.consumed,
                                   buf.size() - a.consumed);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.type, 2);
  EXPECT_EQ(std::string(b.payload, b.payload_len), "second!");
}

TEST(Frame, TruncationAtEveryBoundaryIsStructured) {
  // Cutting the frame anywhere must yield a structured status (kNeedMore
  // for a valid prefix), never a read past the buffer — ASan enforces
  // the "never" half of that claim.
  const std::vector<char> buf = sample_frame();
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const FrameView v = decode_frame(buf.data(), cut);
    EXPECT_EQ(v.status, FrameStatus::kNeedMore) << "cut at " << cut;
    EXPECT_EQ(v.consumed, 0u);
  }
}

TEST(Frame, OversizedLengthFieldRefused) {
  std::vector<char> buf = sample_frame();
  const std::uint32_t evil = kMaxFramePayload + 1;
  std::memcpy(buf.data() + 8, &evil, 4);  // corrupt the length field
  const FrameView v = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(v.status, FrameStatus::kOversized);
  EXPECT_EQ(v.consumed, 0u);
}

TEST(Frame, HugeLengthFieldDoesNotScanPastBuffer) {
  std::vector<char> buf = sample_frame();
  const std::uint32_t evil = 0xFFFFFFF0u;
  std::memcpy(buf.data() + 8, &evil, 4);
  const FrameView v = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(v.status, FrameStatus::kOversized);
}

TEST(Frame, PlausibleCorruptLengthIsCrcCaught) {
  // A corrupted length that stays under the cap but runs past the
  // available bytes reads as kNeedMore (the stream may legitimately be
  // mid-delivery); once "enough" bytes exist the CRC rejects it.
  std::vector<char> buf = sample_frame(7, "0123456789");
  const std::uint32_t shorter = 4;  // real payload is 10 bytes
  std::memcpy(buf.data() + 8, &shorter, 4);
  const FrameView v = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(v.status, FrameStatus::kBadCrc);
}

TEST(Frame, CrcFlipDetectedEverywhere) {
  const std::vector<char> orig = sample_frame();
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (i >= 8 && i < 12) continue;  // length flips handled above
    std::vector<char> buf = orig;
    buf[i] = static_cast<char>(buf[i] ^ 0x40);
    const FrameView v = decode_frame(buf.data(), buf.size());
    EXPECT_FALSE(v.ok()) << "flip at byte " << i << " undetected";
    if (i >= 4) {  // magic flips report kBadMagic instead
      EXPECT_EQ(v.status, FrameStatus::kBadCrc) << "flip at byte " << i;
    }
  }
}

TEST(Frame, BadMagicReportedEvenOnShortBuffers) {
  std::vector<char> buf = sample_frame();
  buf[1] = 'X';
  EXPECT_EQ(decode_frame(buf.data(), buf.size()).status,
            FrameStatus::kBadMagic);
  // Desync is detectable from 4 bytes on — a stream that can never
  // become a frame must not stall as kNeedMore forever.
  EXPECT_EQ(decode_frame(buf.data(), 4).status, FrameStatus::kBadMagic);
  EXPECT_EQ(decode_frame(buf.data(), 3).status, FrameStatus::kNeedMore);
}

TEST(Frame, EncoderRefusesWhatTheDecoderWouldRefuse) {
  // decode_frame refuses a payload above kMaxFramePayload as kOversized,
  // so append_frame must throw instead of writing one, before it
  // touches `out`.
  std::vector<char> payload(kMaxFramePayload + 1, 'x');
  std::vector<char> out = sample_frame();
  const std::vector<char> before = out;
  try {
    append_frame(out, 9, payload.data(), payload.size());
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(kMaxFramePayload + 1)),
              std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kMaxFramePayload)), std::string::npos)
        << msg;
  }
  EXPECT_EQ(out, before);

  // Exactly at the bound is legal and round-trips.
  payload.pop_back();
  out.clear();
  append_frame(out, 9, payload.data(), payload.size());
  const FrameView v = decode_frame(out.data(), out.size());
  ASSERT_TRUE(v.ok()) << frame_status_name(v.status);
  EXPECT_EQ(v.payload_len, kMaxFramePayload);
  EXPECT_EQ(v.consumed, out.size());
}

// --- frame payloads ------------------------------------------------------

TEST(Wire, RoundTripsEveryFieldType) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-7);
  w.i64(INT64_MIN);
  w.f64(-1e300);
  w.str("6tni_p2p");
  WireReader r(w.bytes().data(), w.bytes().size(), "test record");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), INT64_MIN);
  EXPECT_EQ(r.f64(), -1e300);
  EXPECT_EQ(r.str(), "6tni_p2p");
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, ErrorsNameTheRecord) {
  WireWriter w;
  w.u32(3);
  const std::vector<char>& b = w.bytes();
  try {
    WireReader r(b.data(), b.size(), "checkpoint meta");
    r.u64();
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(std::string(e.what()), "checkpoint meta: truncated");
  }
  WireReader trailing(b.data(), b.size(), "serve cancel request");
  EXPECT_THROW(trailing.expect_done(), DecodeError);
  // A count is refused unless the bytes left can hold that many
  // elements, and a negative one always.
  WireReader counts(b.data(), b.size(), "test record");
  EXPECT_EQ(counts.count(1, 4), 1u);
  EXPECT_THROW(counts.count(2, 4), DecodeError);
  EXPECT_THROW(counts.count(-1, 4), DecodeError);
  EXPECT_THROW(counts.count(std::int64_t{1} << 40, 56), DecodeError);
}

}  // namespace
}  // namespace lmp::comm
