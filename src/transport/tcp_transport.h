// Socket-backed transport for the real daemons (DESIGN.md §16).
//
// One TcpTransport per process: it listens on the node's configured port,
// dials the peers it was told to reach (capped exponential backoff),
// identifies every connection with a Hello frame, and runs a
// single-threaded non-blocking poll(2) loop. All nondeterminism of real
// mode — sockets, wall clocks, partial reads, reconnects — lives behind
// this class (and the binlog spool files it writes); brains see only the
// Transport/Handler seam, and radar_lint's transport-confinement rule
// keeps it that way.
//
// Reliability model: a frame handed to Send is delivered to the peer's
// brain at-most-once per connection attempt, in order. Frames sent while
// the peer is down go to a per-peer disk spool; the whole spool is re-sent
// ahead of new traffic when the peer identifies itself again, then
// truncated. Frames still queued on a connection when it dies are
// discarded with it, not spooled. Brains must therefore treat unacked
// exchanges as refusals (HostNode does) — the spool gives the control
// plane continuity across restarts, not exactly-once semantics.
//
// I/O path: Send encodes into the connection's write buffer and touches
// no socket, so no handler callback can close a connection in the middle
// of a read. PollOnce writes every queued buffer before it blocks in
// poll(), so a reply leaves without waiting for a POLLOUT wakeup.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binlog/binlog.h"
#include "transport/node_config.h"
#include "transport/transport.h"

struct pollfd;

namespace radar::transport {

class TcpTransport final : public Transport {
 public:
  struct Options {
    /// Directory for per-peer spool files ("spool-<self>-to-<peer>.binlog");
    /// empty disables spooling (frames to a down peer are counted and
    /// dropped — the client's mode).
    std::string spool_dir;
    binlog::FsyncPolicy fsync = binlog::FsyncPolicy::kNone;
    /// Append every received frame here (the replay capture); empty
    /// disables capture.
    std::string capture_path;
  };

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t frames_spooled = 0;
    std::uint64_t frames_drained = 0;
    std::uint64_t frames_dropped = 0;  ///< down peer, no spool configured
    std::uint64_t connects = 0;        ///< successful identifications
    std::uint64_t disconnects = 0;
    std::uint64_t decode_errors = 0;   ///< connections dropped on bad bytes
    std::uint64_t connect_timeouts = 0;  ///< dials aborted at the deadline
  };

  /// `config` and `handler` must outlive the transport. `handler` may be
  /// null at construction (brain and transport reference each other) but
  /// must be set before Start.
  TcpTransport(const NodeConfig& config, NodeId self, wire::PeerRole role,
               Handler* handler, Options options);

  void SetHandler(Handler* handler) { handler_ = handler; }
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds/listens (when the node's configured port is nonzero) and opens
  /// the capture log. False + *error on failure.
  bool Start(std::string* error);

  /// Marks `peer` as dialed-by-us: the poll loop keeps an outbound
  /// connection to it alive (with backoff) from now on.
  void ConnectTo(NodeId peer);

  /// Runs one poll iteration: due dials, writes of everything queued
  /// since the last one, then a poll() that blocks at most `timeout_ms`
  /// for accepts, reads (frames dispatch to the handler from here) and
  /// writes the kernel pushed back on.
  void PollOnce(int timeout_ms);

  /// Closes every socket (idempotent; the destructor calls it).
  void Stop();

  // Transport:
  NodeId self() const override { return self_; }
  std::int64_t Now() const override;
  std::uint64_t Send(NodeId to, const wire::Message& msg) override;
  bool IsPeerUp(NodeId to) const override;

  const Stats& stats() const { return stats_; }
  /// Frames currently sitting in `peer`'s disk spool.
  std::uint64_t SpoolDepth(NodeId peer) const;
  /// True when every queued byte has been handed to the kernel and no
  /// connect() is in flight (callers poll on this before exiting).
  bool Flushed() const;

 private:
  struct Conn {
    NodeId peer = kInvalidNode;  ///< kInvalidNode until Hello identifies it
    bool outbound = false;
    bool connecting = false;  ///< non-blocking connect() still in progress
    std::int64_t connect_deadline_us = 0;  ///< abort the dial past this
    std::vector<std::uint8_t> rbuf;
    /// Frames are encoded straight onto its end; emptied once written.
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;  ///< bytes of wbuf already written
  };

  struct PeerState {
    bool wanted = false;  ///< ConnectTo called; keep dialing
    bool ever_identified = false;  ///< selects the redial backoff cap
    int fd = -1;          ///< identified live connection (-1: down)
    std::int64_t backoff_ms = 0;
    std::int64_t next_dial_at_us = 0;
    binlog::BinlogWriter spool;
    std::uint64_t spool_depth = 0;
  };

  PeerState& PeerOf(NodeId id);
  std::string SpoolPath(NodeId peer) const;
  /// Opens (and measures) the peer's spool on first use.
  bool EnsureSpool(PeerState& peer_state, NodeId peer);
  /// Closes connecting sockets past their deadline so the backoff loop
  /// can retry from a fresh ephemeral port.
  void AbortStalledDials(std::int64_t now_us);
  void StartDialsDue(std::int64_t now_us);
  void Dial(NodeId peer, std::int64_t now_us);
  void ScheduleRedial(NodeId peer, std::int64_t now_us);
  void AcceptReady();
  /// Connection is established (TCP-level): queue our Hello.
  void OnConnected(int fd, Conn& conn);
  /// Connection is identified as `peer`: adopt it, drain the spool, notify.
  void IdentifyConn(int fd, Conn& conn, NodeId peer);
  void ReadReady(int fd);
  /// POLLOUT: completes a pending connect(), then writes what is queued.
  void WriteReady(int fd);
  /// Hands the connection's queued bytes to the kernel until it is empty
  /// or the kernel returns EAGAIN. False on a hard socket error.
  bool WriteQueued(int fd, Conn& conn);
  /// WriteQueued for every established connection, closing the failed.
  void WriteAllQueued();
  /// Tears the connection down; notifies OnPeerDown when it was the
  /// peer's identified connection.
  void CloseConn(int fd);

  const NodeConfig& config_;
  NodeId self_;
  wire::PeerRole role_;
  Handler* handler_;
  Options options_;
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  std::map<NodeId, PeerState> peers_;
  /// Every recv() lands here, allocated once; only the bytes that arrived
  /// are appended to the connection's rbuf.
  std::vector<std::uint8_t> recv_buf_;
  /// poll() set, rebuilt in place each iteration.
  std::vector<pollfd> pollfds_;
  binlog::BinlogWriter capture_;
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  bool started_ = false;
};

}  // namespace radar::transport
