// Tests for the real-mode wire codec (wire/codec.h): golden byte-exact
// frames pin the v1 layout, property tests round-trip every message type
// over randomized fields, and rejection tests walk every malformed-input
// class (truncation at each byte, bad magic/version/type/length, payload
// range violations, random garbage). The whole file runs under the
// sanitizer CI job, so "no fuzzed input reaches UB" is machine-checked.
#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "wire/codec.h"
#include "wire/frame.h"

namespace radar::wire {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---------------------------------------------------------------------
// Golden fixtures: the exact bytes of version-1 frames. If any of these
// change, the protocol version must be bumped — old captures and spools
// would otherwise decode differently (or not at all).
// ---------------------------------------------------------------------

TEST(WireGolden, RequestFrameBytes) {
  const auto encoded = Encode(0x0102030405060708ull, Request{7, 3});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52,                          // magic "RaDR"
      0x01, 0x00,                                      // version 1
      0x02, 0x00,                                      // type kRequest
      0x08, 0x00, 0x00, 0x00,                          // len 8
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x07, 0x00, 0x00, 0x00,                          // object 7
      0x03, 0x00, 0x00, 0x00,                          // gateway 3
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, HelloFrameBytes) {
  const auto encoded = Encode(1, Hello{5, PeerRole::kRedirector});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00, 0x01, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00,  // node 5
      0x01,                    // role redirector
  });
  EXPECT_EQ(encoded, expected);
}

// Every other type, field by field: distinct values per field, so two
// fields swapped in both the encoder and the decoder still fail here.

TEST(WireGolden, RedirectFrameBytes) {
  const auto encoded = Encode(3, Redirect{4, kInvalidNode});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x03, 0x00,                                      // type kRedirect
      0x08, 0x00, 0x00, 0x00,                          // len 8
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 3
      0x04, 0x00, 0x00, 0x00,                          // object 4
      0xff, 0xff, 0xff, 0xff,                          // host kInvalidNode
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, ReplicateFrameBytes) {
  const auto encoded = Encode(0x1122, Replicate{9, 1, 2, 0.5});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x04, 0x00,                                      // type kReplicate
      0x14, 0x00, 0x00, 0x00,                          // len 20
      0x22, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 0x1122
      0x09, 0x00, 0x00, 0x00,                          // object 9
      0x01, 0x00, 0x00, 0x00,                          // from 1
      0x02, 0x00, 0x00, 0x00,                          // to 2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // unit_load 0.5
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, MigrateFrameBytes) {
  const auto encoded = Encode(2, Migrate{0x0a0b0c0d, 3, kInvalidNode, -3.25});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x05, 0x00,                                      // type kMigrate
      0x14, 0x00, 0x00, 0x00,                          // len 20
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 2
      0x0d, 0x0c, 0x0b, 0x0a,                          // object 0x0a0b0c0d
      0x03, 0x00, 0x00, 0x00,                          // from 3
      0xff, 0xff, 0xff, 0xff,                          // to kInvalidNode
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0xc0,  // unit_load -3.25
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, AckFrameBytes) {
  const auto encoded = Encode(5, Ack{0x1122334455667788ull, true, false});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x06, 0x00,                                      // type kAck
      0x0a, 0x00, 0x00, 0x00,                          // len 10
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 5
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // acked_seq
      0x01,                                            // accepted
      0x00,                                            // created_new_copy
  });
  EXPECT_EQ(encoded, expected);
  const auto created = Encode(5, Ack{7, false, true});
  EXPECT_EQ(created[kHeaderSize + 8], 0x00);
  EXPECT_EQ(created[kHeaderSize + 9], 0x01);
}

TEST(WireGolden, PlacementStatFrameBytes) {
  const auto encoded = Encode(6, PlacementStat{3, 2.0, 0.5, 0x01020304u});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x07, 0x00,                                      // type kPlacementStat
      0x18, 0x00, 0x00, 0x00,                          // len 24
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 6
      0x03, 0x00, 0x00, 0x00,                          // host 3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  // load 2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // weight 0.5
      0x04, 0x03, 0x02, 0x01,                          // num_objects
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, AnnounceFrameBytes) {
  const auto encoded = Encode(7, Announce{6, 2, -2});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x08, 0x00,                                      // type kAnnounce
      0x0c, 0x00, 0x00, 0x00,                          // len 12
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq 7
      0x06, 0x00, 0x00, 0x00,                          // object 6
      0x02, 0x00, 0x00, 0x00,                          // host 2
      0xfe, 0xff, 0xff, 0xff,                          // affinity -2
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, ShutdownFrameBytes) {
  const auto encoded = Encode(0x0102030405060708ull, Shutdown{});
  const auto expected = Bytes({
      0x52, 0x61, 0x44, 0x52, 0x01, 0x00,
      0x09, 0x00,                                      // type kShutdown
      0x00, 0x00, 0x00, 0x00,                          // len 0
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
  });
  EXPECT_EQ(encoded, expected);
}

TEST(WireGolden, MigrateCarriesDoubleAsBitPattern) {
  // 1.5 == 0x3FF8000000000000: the payload must hold exactly those bytes.
  const auto encoded = Encode(2, Migrate{9, 1, 2, 1.5});
  ASSERT_EQ(encoded.size(), kHeaderSize + 20);
  const auto tail = Bytes({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f});
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), encoded.end() - 8));
}

TEST(WireGolden, ShutdownIsHeaderOnly) {
  const auto encoded = Encode(0, Shutdown{});
  EXPECT_EQ(encoded.size(), kHeaderSize);
}

TEST(WireGolden, RedirectNoReplicaUsesInvalidNode) {
  // kInvalidNode (-1) must survive the u32 wire representation.
  const auto encoded = Encode(3, Redirect{4, kInvalidNode});
  const auto result = DecodeFrame(encoded.data(), encoded.size());
  ASSERT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<Redirect>(result.frame.msg).host, kInvalidNode);
}

TEST(WireGolden, PayloadSizesArePinned) {
  EXPECT_EQ(PayloadSize(MsgType::kHello), 5u);
  EXPECT_EQ(PayloadSize(MsgType::kRequest), 8u);
  EXPECT_EQ(PayloadSize(MsgType::kRedirect), 8u);
  EXPECT_EQ(PayloadSize(MsgType::kReplicate), 20u);
  EXPECT_EQ(PayloadSize(MsgType::kMigrate), 20u);
  EXPECT_EQ(PayloadSize(MsgType::kAck), 10u);
  EXPECT_EQ(PayloadSize(MsgType::kPlacementStat), 24u);
  EXPECT_EQ(PayloadSize(MsgType::kAnnounce), 12u);
  EXPECT_EQ(PayloadSize(MsgType::kShutdown), 0u);
}

// ---------------------------------------------------------------------
// Round-trip properties over randomized fields.
// ---------------------------------------------------------------------

void ExpectRoundTrip(std::uint64_t seq, const Message& msg) {
  const auto bytes = Encode(seq, msg);
  EXPECT_EQ(bytes.size(), kHeaderSize + PayloadSize(TypeOf(msg)));
  const auto result = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_EQ(result.status, DecodeStatus::kOk)
      << DecodeStatusName(result.status) << " for "
      << MsgTypeName(TypeOf(msg));
  EXPECT_EQ(result.consumed, bytes.size());
  EXPECT_EQ(result.frame.seq, seq);
  EXPECT_EQ(result.frame.msg, msg);
}

TEST(WireRoundTrip, AllTypesRandomizedFields) {
  Rng rng(20260809);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint64_t seq = rng.NextU64();
    const auto node = [&rng] {
      // Mix valid ids with kInvalidNode (the no-replica sentinel).
      return rng.NextBool(0.1)
                 ? kInvalidNode
                 : static_cast<NodeId>(rng.NextBounded(1u << 20));
    };
    const auto object = [&rng] {
      return static_cast<ObjectId>(rng.NextBounded(1u << 24));
    };
    const auto load = [&rng] { return rng.NextDouble() * 1e6; };
    ExpectRoundTrip(seq, Hello{node(), static_cast<PeerRole>(
                                           rng.NextBounded(3))});
    ExpectRoundTrip(seq, Request{object(), node()});
    ExpectRoundTrip(seq, Redirect{object(), node()});
    ExpectRoundTrip(seq, Replicate{object(), node(), node(), load()});
    ExpectRoundTrip(seq, Migrate{object(), node(), node(), load()});
    ExpectRoundTrip(seq, Ack{rng.NextU64(), rng.NextBool(0.5),
                             rng.NextBool(0.5)});
    ExpectRoundTrip(seq, PlacementStat{node(), load(), rng.NextDouble() * 8,
                                       static_cast<std::uint32_t>(
                                           rng.NextBounded(1u << 16))});
    ExpectRoundTrip(seq, Announce{object(), node(),
                                  static_cast<std::int32_t>(
                                      rng.NextBounded(100) + 1)});
    ExpectRoundTrip(seq, Shutdown{});
  }
}

TEST(WireRoundTrip, DoubleBitPatternsSurviveExactly) {
  // Doubles travel as bit patterns, so even non-finite values and -0.0
  // must round-trip bit-exact.
  for (double v : {0.0, -0.0, 1.0 / 3.0, 1e308, -1e-308,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    ExpectRoundTrip(1, Replicate{1, 2, 3, v});
    ExpectRoundTrip(1, PlacementStat{1, v, v, 0});
  }
}

TEST(WireRoundTrip, EncodeAppendConcatenatesDecodableStream) {
  // The transport appends many frames into one output buffer; decoding
  // must walk the stream frame by frame.
  std::vector<std::uint8_t> stream;
  EncodeAppend(stream, 1, Request{1, 0});
  EncodeAppend(stream, 2, Shutdown{});
  EncodeAppend(stream, 3, Ack{1, true, false});

  std::size_t offset = 0;
  std::vector<std::uint64_t> seqs;
  while (offset < stream.size()) {
    const auto result =
        DecodeFrame(stream.data() + offset, stream.size() - offset);
    ASSERT_EQ(result.status, DecodeStatus::kOk);
    seqs.push_back(result.frame.seq);
    offset += result.consumed;
  }
  EXPECT_EQ(offset, stream.size());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
}

// ---------------------------------------------------------------------
// Rejection: every malformed-input class maps to its DecodeStatus, and
// errors never consume bytes.
// ---------------------------------------------------------------------

TEST(WireReject, TruncatedPrefixesAtEveryLength) {
  const auto frame = Encode(42, PlacementStat{1, 2.0, 1.0, 3});
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const auto result = DecodeFrame(frame.data(), n);
    EXPECT_EQ(result.status, DecodeStatus::kNeedMore) << "prefix " << n;
    EXPECT_EQ(result.consumed, 0u);
  }
}

TEST(WireReject, BadMagicDetectedFromFirstByte) {
  auto frame = Encode(1, Shutdown{});
  for (std::size_t i = 0; i < 4; ++i) {
    auto corrupt = frame;
    corrupt[i] ^= 0xff;
    // Even a 1-byte prefix of garbage is rejected immediately.
    for (std::size_t n = i + 1; n <= corrupt.size(); ++n) {
      const auto result = DecodeFrame(corrupt.data(), n);
      EXPECT_EQ(result.status, DecodeStatus::kBadMagic);
      EXPECT_EQ(result.consumed, 0u);
    }
  }
}

TEST(WireReject, WrongVersion) {
  auto frame = Encode(1, Request{1, 2});
  frame[4] = 2;  // version 2
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).status,
            DecodeStatus::kBadVersion);
  // Detected as soon as the version field is present.
  EXPECT_EQ(DecodeFrame(frame.data(), 6).status, DecodeStatus::kBadVersion);
}

TEST(WireReject, OversizedLenRejectedBeforeBuffering) {
  auto frame = Encode(1, Request{1, 2});
  const std::uint32_t huge = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    frame[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((huge >> (8 * i)) & 0xff);
  }
  // Only the header is needed to reject: no kNeedMore stall waiting for a
  // gigabyte that will never arrive.
  const auto result = DecodeFrame(frame.data(), kHeaderSize);
  EXPECT_EQ(result.status, DecodeStatus::kBadLength);
  EXPECT_EQ(result.consumed, 0u);
}

TEST(WireReject, UnknownType) {
  auto frame = Encode(1, Shutdown{});
  frame[6] = 0;  // type 0 (below kHello)
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).status,
            DecodeStatus::kBadType);
  frame[6] = 10;  // above kShutdown
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).status,
            DecodeStatus::kBadType);
}

TEST(WireReject, LenMismatchForType) {
  // A Request header claiming a Shutdown-sized payload (and vice versa).
  auto frame = Encode(1, Request{1, 2});
  frame[8] = 0;  // len 0
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).status,
            DecodeStatus::kBadPayload);
}

TEST(WireReject, PayloadRangeViolations) {
  // Hello role byte out of range.
  auto hello = Encode(1, Hello{1, PeerRole::kClient});
  hello[kHeaderSize + 4] = 3;
  EXPECT_EQ(DecodeFrame(hello.data(), hello.size()).status,
            DecodeStatus::kBadPayload);
  // Ack flag bytes must be 0/1.
  auto ack = Encode(1, Ack{1, true, true});
  ack[kHeaderSize + 8] = 2;
  EXPECT_EQ(DecodeFrame(ack.data(), ack.size()).status,
            DecodeStatus::kBadPayload);
}

TEST(WireReject, RandomGarbageNeverCrashes) {
  // Fuzz pass: decode random buffers (and random corruptions of valid
  // frames). Under ASan/UBSan this proves no input reaches UB; statuses
  // just have to be *some* defined value, with consumed 0 on errors.
  Rng rng(0xfadedbee);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf(rng.NextBounded(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    const auto result = DecodeFrame(buf.data(), buf.size());
    if (result.status != DecodeStatus::kOk) {
      EXPECT_EQ(result.consumed, 0u);
    }
  }
  for (int iter = 0; iter < 2000; ++iter) {
    auto frame = Encode(rng.NextU64(),
                        Replicate{1, 2, 3, rng.NextDouble()});
    const std::size_t at = rng.NextBounded(frame.size());
    frame[at] ^= static_cast<std::uint8_t>(rng.NextBounded(255) + 1);
    const auto result = DecodeFrame(frame.data(), frame.size());
    if (result.status != DecodeStatus::kOk) {
      EXPECT_EQ(result.consumed, 0u);
    } else {
      EXPECT_EQ(result.consumed, frame.size());
    }
  }
}

}  // namespace
}  // namespace radar::wire
