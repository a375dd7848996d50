#include "wire/codec.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"

namespace radar::wire {
namespace {

constexpr std::size_t kNumTypes = std::variant_size_v<Message>;

template <std::size_t... I>
constexpr bool InTypeOrder(std::index_sequence<I...>) {
  return ((static_cast<std::size_t>(
               std::variant_alternative_t<I, Message>::kType) == I + 1) &&
          ...);
}
static_assert(InTypeOrder(std::make_index_sequence<kNumTypes>{}),
              "Message must list the messages in MsgType order");

template <class Tie>
struct TieBytes;
template <class... Fields>
struct TieBytes<std::tuple<Fields&...>> {
  static constexpr auto value =
      static_cast<std::uint32_t>((kByteSize<Fields> + ... + 0));
};

/// Payload bytes of message M: the sum over its field list.
template <class M>
constexpr std::uint32_t kPayloadSize =
    TieBytes<decltype(M::Fields(std::declval<M&>()))>::value;

template <class M>
bool DecodePayload(ByteReader& reader, Message* out) {
  std::apply([&reader](auto&... field) { reader.Get(field...); },
             M::Fields(out->emplace<M>()));
  return reader.Exhausted();
}

/// Per-type payload sizes and decoders, indexed by MsgType - 1.
struct TypeTables {
  std::array<std::uint32_t, kNumTypes> payload_size;
  std::array<bool (*)(ByteReader&, Message*), kNumTypes> decode;
};

template <std::size_t... I>
constexpr TypeTables MakeTables(std::index_sequence<I...>) {
  return {{kPayloadSize<std::variant_alternative_t<I, Message>>...},
          {&DecodePayload<std::variant_alternative_t<I, Message>>...}};
}
constexpr TypeTables kTables = MakeTables(std::make_index_sequence<kNumTypes>{});

bool ValidType(std::uint16_t type) {
  return type >= static_cast<std::uint16_t>(MsgType::kHello) &&
         type <= static_cast<std::uint16_t>(MsgType::kShutdown);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kRedirect: return "REDIRECT";
    case MsgType::kReplicate: return "REPLICATE";
    case MsgType::kMigrate: return "MIGRATE";
    case MsgType::kAck: return "ACK";
    case MsgType::kPlacementStat: return "PLACEMENT_STAT";
    case MsgType::kAnnounce: return "ANNOUNCE";
    case MsgType::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

MsgType TypeOf(const Message& msg) {
  return static_cast<MsgType>(msg.index() + 1);
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadPayload: return "bad-payload";
  }
  return "?";
}

std::uint32_t PayloadSize(MsgType type) {
  const auto raw = static_cast<std::uint16_t>(type);
  RADAR_CHECK_MSG(ValidType(raw), "unknown message type");
  return kTables.payload_size[raw - 1u];
}

void EncodeAppend(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  const Message& msg) {
  std::visit(
      [&out, seq](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        const std::size_t at = out.size();
        out.resize(at + kHeaderSize + kPayloadSize<M>);
        ByteWriter writer({out.data() + at, kHeaderSize + kPayloadSize<M>});
        writer.Put(kMagic, kVersion, M::kType, kPayloadSize<M>, seq);
        std::apply([&writer](const auto&... field) { writer.Put(field...); },
                   M::Fields(m));
      },
      msg);
}

std::vector<std::uint8_t> Encode(std::uint64_t seq, const Message& msg) {
  std::vector<std::uint8_t> out;
  EncodeAppend(out, seq, msg);
  return out;
}

DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size) {
  DecodeResult result;

  // Magic and version are validated from whatever prefix is present, so a
  // stream that is garbage from byte 0 is rejected immediately instead of
  // stalling in kNeedMore until kHeaderSize bytes of garbage accumulate.
  std::array<std::uint8_t, 6> start{};
  ByteWriter(start).Put(kMagic, kVersion);
  if (!std::equal(data, data + std::min<std::size_t>(size, 4), start.begin())) {
    result.status = DecodeStatus::kBadMagic;
    return result;
  }
  if (size >= 6 && !std::equal(data + 4, data + 6, start.begin() + 4)) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  if (size < kHeaderSize) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }

  std::uint16_t raw_type = 0;
  std::uint32_t len = 0;
  std::uint64_t seq = 0;
  ByteReader({data + start.size(), kHeaderSize - start.size()})
      .Get(raw_type, len, seq);
  if (len > kMaxPayload) {
    result.status = DecodeStatus::kBadLength;
    return result;
  }
  if (!ValidType(raw_type)) {
    result.status = DecodeStatus::kBadType;
    return result;
  }
  if (len != kTables.payload_size[raw_type - 1u]) {
    result.status = DecodeStatus::kBadPayload;
    return result;
  }
  if (size - kHeaderSize < len) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  ByteReader payload({data + kHeaderSize, len});
  if (!kTables.decode[raw_type - 1u](payload, &result.frame.msg)) {
    result.frame.msg = Message{};
    result.status = DecodeStatus::kBadPayload;
    return result;
  }
  result.frame.seq = seq;
  result.status = DecodeStatus::kOk;
  result.consumed = kHeaderSize + len;
  return result;
}

}  // namespace radar::wire
