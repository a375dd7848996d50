// Wire protocol messages for real-system mode (DESIGN.md §16).
//
// The Fig. 2–5 protocol exchanges, flattened into nine fixed-size frame
// payloads behind a versioned header. Every multi-byte field is
// little-endian on the wire; the structs here are the decoded in-memory
// view. The codec (wire/codec.h) is the only code that touches bytes —
// daemons, the simulator transport, and the binlog replay tooling all
// traffic in these structs.
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

struct Hello {
  NodeId node = kInvalidNode;
  PeerRole role = PeerRole::kHost;

  friend bool operator==(const Hello&, const Hello&) = default;
};

struct Request {
  ObjectId object = kInvalidObject;
  NodeId gateway = kInvalidNode;

  friend bool operator==(const Request&, const Request&) = default;
};

struct Redirect {
  ObjectId object = kInvalidObject;
  /// kInvalidNode when no live replica exists (every copy is down).
  NodeId host = kInvalidNode;

  friend bool operator==(const Redirect&, const Redirect&) = default;
};

/// Fig. 4 CreateObj(REPLICATE) host→host, and the created-replica
/// notification host→redirector (`to` is the creating host there).
struct Replicate {
  ObjectId object = kInvalidObject;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double unit_load = 0.0;

  friend bool operator==(const Replicate&, const Replicate&) = default;
};

/// Fig. 4 CreateObj(MIGRATE) host→host, and the drop-arbitration request
/// host→redirector ("may `from` drop its sole-affinity copy of x?"; `to`
/// is unused there).
struct Migrate {
  ObjectId object = kInvalidObject;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double unit_load = 0.0;

  friend bool operator==(const Migrate&, const Migrate&) = default;
};

struct Ack {
  /// Sequence number of the frame being answered.
  std::uint64_t acked_seq = 0;
  bool accepted = false;
  /// CreateObj only: a new physical copy was created (object bytes moved).
  bool created_new_copy = false;

  friend bool operator==(const Ack&, const Ack&) = default;
};

/// One host's load report (Sec. 4.2.2's periodic exchange).
struct PlacementStat {
  NodeId host = kInvalidNode;
  double load = 0.0;    ///< admission-load estimate (requests/sec)
  double weight = 1.0;  ///< relative-power weight (Sec. 2)
  std::uint32_t num_objects = 0;

  friend bool operator==(const PlacementStat&, const PlacementStat&) = default;
};

/// "`host` holds x at `affinity` units", host→redirector. The redirector
/// restores an unrecorded replica (Redirector::RestoreReplica: a
/// re-announce after a restart), lowers a record above `affinity`
/// (OnAffinityReduced: a placement round shed a unit), and ignores it
/// otherwise — announcing is idempotent, unlike a Replicate notification
/// (which increments affinity on repeat).
struct Announce {
  ObjectId object = kInvalidObject;
  NodeId host = kInvalidNode;
  std::int32_t affinity = 1;

  friend bool operator==(const Announce&, const Announce&) = default;
};

struct Shutdown {
  friend bool operator==(const Shutdown&, const Shutdown&) = default;
};

using Message = std::variant<Hello, Request, Redirect, Replicate, Migrate,
                             Ack, PlacementStat, Announce, Shutdown>;

/// The wire type tag of a decoded message.
MsgType TypeOf(const Message& msg);

}  // namespace radar::wire
