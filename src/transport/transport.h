// The transport seam of real-system mode (DESIGN.md §16).
//
// Protocol brains (transport/host_node.h, transport/redirector_node.h)
// are written against this pair of interfaces and nothing else: no
// sockets, no wall clocks, no simulator types. The same brain object
// then runs
//   - under SimTransport (transport/sim_transport.h) on a SimNet driven
//     by the deterministic simulator, which is how transport_test tests
//     the brains, and
//   - under TcpTransport (transport/tcp_transport.h) inside the
//     radar-hostd / radar-redirectd daemons on real sockets.
// Captured traffic does not pass through the brains again: radar-replay
// feeds the capture's request stream to HostingSimulation on a clique
// topology (binlog/replay.h).
//
// radar_lint enforces the split: syscall and wall-clock tokens are
// confined to src/transport/ + src/binlog/ (the transport-confinement
// rule), so a brain *cannot* grow a hidden nondeterminism dependency
// without failing CI.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "wire/codec.h"
#include "wire/frame.h"

namespace radar::transport {

/// Callbacks a brain implements. Invoked only from the transport's event
/// loop (single-threaded; no locking needed in brains).
class Handler {
 public:
  virtual ~Handler() = default;

  /// A decoded frame arrived from `from`. `frame.seq` is the sender's
  /// sequence number (echo it in Ack::acked_seq when answering).
  virtual void OnFrame(NodeId from, const wire::DecodedFrame& frame) = 0;

  /// A peer became reachable (connection established and identified; any
  /// spooled frames have already been queued for it).
  virtual void OnPeerUp(NodeId peer) { (void)peer; }

  /// A peer became unreachable (connection lost; subsequent Sends spool).
  virtual void OnPeerDown(NodeId peer) { (void)peer; }
};

/// What a brain may do to the world: send frames and read the clock.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual NodeId self() const = 0;

  /// Current time in microseconds. SimTransport returns the simulation
  /// clock; TcpTransport returns CLOCK_MONOTONIC. Brains must treat it as
  /// opaque monotonic time (only differences are meaningful).
  virtual std::int64_t Now() const = 0;

  /// Queues `msg` for `to` and returns the sequence number it was framed
  /// under. Never blocks and never fails from the brain's point of view:
  /// frames to an unreachable peer are spooled and drained on reconnect.
  virtual std::uint64_t Send(NodeId to, const wire::Message& msg) = 0;

  /// True when `to` is currently reachable (frames flow instead of
  /// spooling). Advisory — a send racing a disconnect still spools.
  virtual bool IsPeerUp(NodeId to) const = 0;
};

}  // namespace radar::transport
