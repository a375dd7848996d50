// Wire protocol messages for real-system mode (DESIGN.md §16).
//
// The Fig. 2–5 protocol exchanges, flattened into nine fixed-size frame
// payloads behind a versioned header. Each struct here is both the decoded
// in-memory view and the layout of its payload: `kType` is its wire tag,
// and `Fields` lists its fields once, in wire order, each laid out by its
// type (common/bytes.h: little-endian integers, one-byte bools and
// enumerations, doubles as u64 bit patterns). The codec (wire/codec.h)
// derives encoding, decoding and payload sizes from those lists and is the
// only code that touches frame bytes — daemons, the simulator transport,
// and the binlog replay tooling all traffic in these structs.
//
// Message map (who sends what):
//   kHello          any → any        first frame on a connection: identity
//   kRequest        client → redirector   "a request for x entered at g"
//                   client → host         the redirected fetch itself
//   kRedirect       redirector → client   Fig. 2's answer (host may be
//                                         kInvalidNode: no live replica)
//   kReplicate      host → host           Fig. 4 CreateObj(REPLICATE)
//                   host → redirector     "I created a replica of x"
//   kMigrate        host → host           Fig. 4 CreateObj(MIGRATE)
//                   host → redirector     "may I drop my sole-affinity
//                                         copy of x?" (the redirector-
//                                         arbitrated drop of Fig. 3)
//   kAck            any → any        verdict for the frame with seq
//                                    acked_seq (accepted / created flags)
//   kPlacementStat  host → redirector     periodic load report
//                   redirector → host     relayed reports (the Sec. 4.2.2
//                                         load-exchange, hub-and-spoke)
//   kAnnounce       host → redirector     "I hold x at affinity a": re-
//                                         registers a replica after a
//                                         restart, and lowers the record
//                                         when a placement round shed an
//                                         affinity unit (idempotent; never
//                                         raises, never double-counts)
//   kShutdown       any → any        orderly stop (CI harness control)
#pragma once

#include <cstdint>
#include <tuple>
#include <variant>

#include "common/types.h"

namespace radar::wire {

/// First four bytes of every frame ("RaDR" when read as LE bytes).
inline constexpr std::uint32_t kMagic = 0x52446152u;

/// Protocol version; decoders reject anything else.
inline constexpr std::uint16_t kVersion = 1;

/// Fixed header size: magic u32, version u16, type u16, len u32, seq u64.
inline constexpr std::size_t kHeaderSize = 20;

/// Upper bound on the payload length field. Every defined message is a
/// few dozen bytes; anything claiming more is corrupt, and rejecting it
/// before buffering keeps a malformed peer from ballooning memory.
inline constexpr std::uint32_t kMaxPayload = 4096;

enum class MsgType : std::uint16_t {
  kHello = 1,
  kRequest = 2,
  kRedirect = 3,
  kReplicate = 4,
  kMigrate = 5,
  kAck = 6,
  kPlacementStat = 7,
  kAnnounce = 8,
  kShutdown = 9,
};

const char* MsgTypeName(MsgType type);

/// Role claimed in a Hello (matches transport::NodeRole numerically).
enum class PeerRole : std::uint8_t {
  kHost = 0,
  kRedirector = 1,
  kClient = 2,
};

/// Decoders reject a role byte above kClient.
constexpr bool InRange(PeerRole role) { return role <= PeerRole::kClient; }

struct Hello {
  static constexpr MsgType kType = MsgType::kHello;
  NodeId node = kInvalidNode;
  PeerRole role = PeerRole::kHost;

  static auto Fields(auto& m) { return std::tie(m.node, m.role); }

  friend bool operator==(const Hello&, const Hello&) = default;
};

struct Request {
  static constexpr MsgType kType = MsgType::kRequest;
  ObjectId object = kInvalidObject;
  NodeId gateway = kInvalidNode;

  static auto Fields(auto& m) { return std::tie(m.object, m.gateway); }

  friend bool operator==(const Request&, const Request&) = default;
};

struct Redirect {
  static constexpr MsgType kType = MsgType::kRedirect;
  ObjectId object = kInvalidObject;
  /// kInvalidNode when no live replica exists (every copy is down).
  NodeId host = kInvalidNode;

  static auto Fields(auto& m) { return std::tie(m.object, m.host); }

  friend bool operator==(const Redirect&, const Redirect&) = default;
};

/// Fig. 4 CreateObj(REPLICATE) host→host, and the created-replica
/// notification host→redirector (`to` is the creating host there).
struct Replicate {
  static constexpr MsgType kType = MsgType::kReplicate;
  ObjectId object = kInvalidObject;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double unit_load = 0.0;

  static auto Fields(auto& m) {
    return std::tie(m.object, m.from, m.to, m.unit_load);
  }

  friend bool operator==(const Replicate&, const Replicate&) = default;
};

/// Fig. 4 CreateObj(MIGRATE) host→host, and the drop-arbitration request
/// host→redirector ("may `from` drop its sole-affinity copy of x?"; `to`
/// is unused there).
struct Migrate {
  static constexpr MsgType kType = MsgType::kMigrate;
  ObjectId object = kInvalidObject;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double unit_load = 0.0;

  static auto Fields(auto& m) {
    return std::tie(m.object, m.from, m.to, m.unit_load);
  }

  friend bool operator==(const Migrate&, const Migrate&) = default;
};

struct Ack {
  static constexpr MsgType kType = MsgType::kAck;
  /// Sequence number of the frame being answered.
  std::uint64_t acked_seq = 0;
  bool accepted = false;
  /// CreateObj only: a new physical copy was created (object bytes moved).
  bool created_new_copy = false;

  static auto Fields(auto& m) {
    return std::tie(m.acked_seq, m.accepted, m.created_new_copy);
  }

  friend bool operator==(const Ack&, const Ack&) = default;
};

/// One host's load report (Sec. 4.2.2's periodic exchange).
struct PlacementStat {
  static constexpr MsgType kType = MsgType::kPlacementStat;
  NodeId host = kInvalidNode;
  double load = 0.0;    ///< admission-load estimate (requests/sec)
  double weight = 1.0;  ///< relative-power weight (Sec. 2)
  std::uint32_t num_objects = 0;

  static auto Fields(auto& m) {
    return std::tie(m.host, m.load, m.weight, m.num_objects);
  }

  friend bool operator==(const PlacementStat&, const PlacementStat&) = default;
};

/// "`host` holds x at `affinity` units", host→redirector. The redirector
/// restores an unrecorded replica (Redirector::RestoreReplica: a
/// re-announce after a restart), lowers a record above `affinity`
/// (OnAffinityReduced: a placement round shed a unit), and ignores it
/// otherwise — announcing is idempotent, unlike a Replicate notification
/// (which increments affinity on repeat).
struct Announce {
  static constexpr MsgType kType = MsgType::kAnnounce;
  ObjectId object = kInvalidObject;
  NodeId host = kInvalidNode;
  std::int32_t affinity = 1;

  static auto Fields(auto& m) {
    return std::tie(m.object, m.host, m.affinity);
  }

  friend bool operator==(const Announce&, const Announce&) = default;
};

struct Shutdown {
  static constexpr MsgType kType = MsgType::kShutdown;

  static auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const Shutdown&, const Shutdown&) = default;
};

/// Every message, in MsgType order (the codec checks it at compile time).
using Message = std::variant<Hello, Request, Redirect, Replicate, Migrate,
                             Ack, PlacementStat, Announce, Shutdown>;

/// The wire type tag of a decoded message.
MsgType TypeOf(const Message& msg);

}  // namespace radar::wire
