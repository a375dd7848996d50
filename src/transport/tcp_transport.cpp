#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "wire/codec.h"

namespace radar::transport {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

constexpr std::int64_t kBackoffInitialMs = 50;
constexpr std::int64_t kBackoffMaxMs = 2000;
/// Backoff cap used until a peer has been identified at least once.
/// Initial platform assembly races the peers' bind order: a dial refused at
/// boot because the peer has not bound yet should retry quickly, not earn
/// the multi-second cap meant for real outages.
constexpr std::int64_t kBackoffPreconnectMaxMs = 250;
/// Abort a non-blocking connect() still pending after this long and redial
/// from a fresh socket (fresh ephemeral port). Without a deadline one
/// attempt whose SYNs vanish — firewalled peer, or a stale TIME-WAIT tuple
/// swallowing the handshake on loopback — can wedge the kernel's
/// retransmit cycle for minutes while the backoff loop waits on it.
constexpr std::int64_t kConnectTimeoutMs = 3000;

int MakeSocket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

bool FillAddr(const NodeEntry& entry, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(entry.port);
  return ::inet_pton(AF_INET, entry.address.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(const NodeConfig& config, NodeId self,
                           wire::PeerRole role, Handler* handler,
                           Options options)
    : config_(config),
      self_(self),
      role_(role),
      handler_(handler),
      options_(std::move(options)),
      recv_buf_(kReadChunk) {
  RADAR_CHECK(config.Has(self));
  for (const NodeEntry& entry : config.nodes()) {
    if (entry.id == self) continue;
    peers_[entry.id].backoff_ms = kBackoffInitialMs;
  }
}

TcpTransport::~TcpTransport() { Stop(); }

std::int64_t TcpTransport::Now() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1000;
}

TcpTransport::PeerState& TcpTransport::PeerOf(NodeId id) {
  const auto it = peers_.find(id);
  RADAR_CHECK_MSG(it != peers_.end(), "unknown peer node");
  return it->second;
}

bool TcpTransport::Start(std::string* error) {
  RADAR_CHECK_MSG(handler_ != nullptr, "SetHandler before Start");
  const NodeEntry& me = config_.At(self_);
  if (me.port != 0) {
    const int fd = MakeSocket();
    if (fd < 0) {
      if (error != nullptr) *error = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    if (!FillAddr(me, &addr)) {
      ::close(fd);
      if (error != nullptr) *error = "bad listen address: " + me.address;
      return false;
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 64) != 0) {
      if (error != nullptr) {
        *error = me.address + ":" + std::to_string(me.port) +
                 ": bind/listen: " + std::string(std::strerror(errno));
      }
      ::close(fd);
      return false;
    }
    listen_fd_ = fd;
  }
  if (!options_.capture_path.empty() &&
      !capture_.Open(options_.capture_path, options_.fsync, error)) {
    Stop();
    return false;
  }
  started_ = true;
  return true;
}

void TcpTransport::Stop() {
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  capture_.Close();
  for (auto& [id, peer] : peers_) peer.spool.Close();
  started_ = false;
}

void TcpTransport::ConnectTo(NodeId peer) {
  PeerState& state = PeerOf(peer);
  state.wanted = true;
  state.next_dial_at_us = 0;  // dial on the next poll iteration
}

std::string TcpTransport::SpoolPath(NodeId peer) const {
  return options_.spool_dir + "/spool-" + std::to_string(self_) + "-to-" +
         std::to_string(peer) + ".binlog";
}

bool TcpTransport::EnsureSpool(PeerState& peer_state, NodeId peer) {
  if (peer_state.spool.is_open()) return true;
  if (options_.spool_dir.empty()) return false;
  std::string error;
  const std::string path = SpoolPath(peer);
  // A restart continues an existing spool: count what is already there so
  // SpoolDepth and the drain stay truthful.
  if (const auto existing = binlog::ReadBinlog(path, &error)) {
    peer_state.spool_depth = existing->records.size();
  }
  return peer_state.spool.Open(path, options_.fsync, &error);
}

// RADAR_HOT: Send (encode into the connected peer's write buffer)
std::uint64_t TcpTransport::Send(NodeId to, const wire::Message& msg) {
  const std::uint64_t seq = next_seq_++;
  PeerState& peer = PeerOf(to);
  const auto conn_it = peer.fd >= 0 ? conns_.find(peer.fd) : conns_.end();
  if (conn_it != conns_.end()) {
    wire::EncodeAppend(conn_it->second.wbuf, seq, msg);
    ++stats_.frames_sent;
  } else if (EnsureSpool(peer, to)) {
    const std::vector<std::uint8_t> bytes = wire::Encode(seq, msg);
    if (peer.spool.Append(Now(), self_, to, bytes.data(), bytes.size())) {
      ++peer.spool_depth;
      ++stats_.frames_spooled;
    } else {
      ++stats_.frames_dropped;
    }
  } else {
    ++stats_.frames_dropped;
  }
  return seq;
}
// RADAR_HOT_END

bool TcpTransport::IsPeerUp(NodeId to) const {
  const auto it = peers_.find(to);
  return it != peers_.end() && it->second.fd >= 0;
}

std::uint64_t TcpTransport::SpoolDepth(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() ? it->second.spool_depth : 0;
}

bool TcpTransport::Flushed() const {
  for (const auto& [fd, conn] : conns_) {
    if (conn.connecting || conn.woff < conn.wbuf.size()) return false;
  }
  return true;
}

void TcpTransport::StartDialsDue(std::int64_t now_us) {
  for (auto& [id, peer] : peers_) {
    if (!peer.wanted || peer.fd >= 0) continue;
    bool dialing = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn.outbound && conn.peer == id) {
        dialing = true;
        break;
      }
    }
    if (!dialing && now_us >= peer.next_dial_at_us) Dial(id, now_us);
  }
}

void TcpTransport::ScheduleRedial(NodeId peer, std::int64_t now_us) {
  PeerState& state = PeerOf(peer);
  const std::int64_t cap =
      state.ever_identified ? kBackoffMaxMs : kBackoffPreconnectMaxMs;
  state.backoff_ms = std::min(state.backoff_ms, cap);
  state.next_dial_at_us = now_us + state.backoff_ms * 1000;
  state.backoff_ms = std::min(state.backoff_ms * 2, cap);
}

void TcpTransport::Dial(NodeId peer, std::int64_t now_us) {
  const NodeEntry& entry = config_.At(peer);
  sockaddr_in addr{};
  const int fd = FillAddr(entry, &addr) ? MakeSocket() : -1;
  if (fd < 0) {
    RADAR_LOG_DEBUG("[tcp %d] dial peer=%d socket: %s\n", self_, peer,
                    std::strerror(errno));
    ScheduleRedial(peer, now_us);
    return;
  }
  Conn conn;
  conn.peer = peer;
  conn.outbound = true;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    RADAR_LOG_DEBUG("[tcp %d] dial peer=%d fd=%d connected\n", self_, peer, fd);
    auto [it, inserted] = conns_.emplace(fd, std::move(conn));
    OnConnected(fd, it->second);
    IdentifyConn(fd, it->second, peer);
  } else if (errno == EINPROGRESS) {
    RADAR_LOG_DEBUG("[tcp %d] dial peer=%d fd=%d in progress\n", self_, peer,
                    fd);
    conn.connecting = true;
    conn.connect_deadline_us = now_us + kConnectTimeoutMs * 1000;
    conns_.emplace(fd, std::move(conn));
  } else {
    RADAR_LOG_DEBUG("[tcp %d] dial peer=%d failed: %s\n", self_, peer,
                    std::strerror(errno));
    ::close(fd);
    ScheduleRedial(peer, now_us);
  }
}

void TcpTransport::AcceptReady() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        RADAR_LOG_DEBUG("[tcp %d] accept failed: %s\n", self_,
                        std::strerror(errno));
      }
      return;
    }
    auto [it, inserted] = conns_.emplace(fd, Conn{});
    RADAR_LOG_DEBUG("[tcp %d] accept fd=%d inserted=%d\n", self_, fd,
                    static_cast<int>(inserted));
    OnConnected(fd, it->second);
  }
}

void TcpTransport::OnConnected(int fd, Conn& conn) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  conn.connecting = false;
  // Identify ourselves first; the peer adopts the connection on receipt.
  wire::EncodeAppend(conn.wbuf, next_seq_++, wire::Hello{self_, role_});
}

void TcpTransport::IdentifyConn(int fd, Conn& conn, NodeId peer) {
  conn.peer = peer;
  PeerState& state = PeerOf(peer);
  RADAR_LOG_DEBUG("[tcp %d] identify fd=%d peer=%d (old state.fd=%d)\n", self_, fd,
            peer, state.fd);
  if (state.fd >= 0 && state.fd != fd) {
    // The peer reconnected before we noticed the old connection die.
    // Adopt the new one; close the stale socket without a down/up blip.
    const auto stale = conns_.find(state.fd);
    if (stale != conns_.end()) {
      stale->second.peer = kInvalidNode;
      CloseConn(state.fd);
    }
  }
  state.fd = fd;
  state.ever_identified = true;
  state.backoff_ms = kBackoffInitialMs;
  ++stats_.connects;
  // Drain the spool ahead of new traffic, preserving send order across
  // the outage.
  if (!options_.spool_dir.empty()) {
    std::string error;
    if (const auto spooled = binlog::ReadBinlog(SpoolPath(peer), &error)) {
      for (const binlog::Record& record : spooled->records) {
        conn.wbuf.insert(conn.wbuf.end(), record.payload.begin(),
                         record.payload.end());
        ++stats_.frames_drained;
        ++stats_.frames_sent;
      }
      if (!spooled->records.empty() && EnsureSpool(state, peer)) {
        state.spool.Reset();
      }
      state.spool_depth = 0;
    }
  }
  handler_->OnPeerUp(peer);
}

void TcpTransport::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const NodeId peer = it->second.peer;
  const bool was_identified = !it->second.connecting && peer != kInvalidNode &&
                              peers_.count(peer) != 0 &&
                              peers_.at(peer).fd == fd;
  RADAR_LOG_DEBUG("[tcp %d] close fd=%d peer=%d identified=%d connecting=%d\n",
            self_, fd, peer, static_cast<int>(was_identified), static_cast<int>(it->second.connecting));
  conns_.erase(it);
  ::close(fd);
  if (peer != kInvalidNode && peers_.count(peer) != 0) {
    ScheduleRedial(peer, Now());
  }
  if (was_identified) {
    peers_.at(peer).fd = -1;
    ++stats_.disconnects;
    handler_->OnPeerDown(peer);
  }
}

void TcpTransport::ReadReady(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (true) {
    const ssize_t n = ::recv(fd, recv_buf_.data(), recv_buf_.size(), 0);
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), recv_buf_.begin(),
                       recv_buf_.begin() + n);
      if (static_cast<std::size_t>(n) < recv_buf_.size()) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(fd);  // orderly close or hard error
    return;
  }
  // RADAR_HOT: ReadReady dispatch loop (decode, capture, handler)
  std::size_t off = 0;
  while (off < conn.rbuf.size()) {
    const wire::DecodeResult decoded =
        wire::DecodeFrame(conn.rbuf.data() + off, conn.rbuf.size() - off);
    if (decoded.status == wire::DecodeStatus::kNeedMore) break;
    if (decoded.status != wire::DecodeStatus::kOk) {
      // Corrupt stream: this transport never resynchronizes mid-stream —
      // it drops the connection and lets the dial/accept path rebuild it.
      ++stats_.decode_errors;
      CloseConn(fd);
      return;
    }
    const std::uint8_t* frame_bytes = conn.rbuf.data() + off;
    const std::size_t frame_size = decoded.consumed;
    off += decoded.consumed;
    if (conn.peer == kInvalidNode) {
      const auto* hello = std::get_if<wire::Hello>(&decoded.frame.msg);
      if (hello == nullptr || !config_.Has(hello->node) ||
          hello->node == self_) {
        ++stats_.decode_errors;
        CloseConn(fd);
        return;
      }
      IdentifyConn(fd, conn, hello->node);
      continue;
    }
    if (std::holds_alternative<wire::Hello>(decoded.frame.msg)) continue;
    ++stats_.frames_received;
    if (capture_.is_open()) {
      capture_.Append(Now(), conn.peer, self_, frame_bytes, frame_size);
    }
    handler_->OnFrame(conn.peer, decoded.frame);
    // The handler may have closed this very connection (e.g. Stop()).
    const auto again = conns_.find(fd);
    if (again == conns_.end()) return;
    RADAR_CHECK(&again->second == &conn);
  }
  conn.rbuf.erase(conn.rbuf.begin(),
                  conn.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  // RADAR_HOT_END
}

void TcpTransport::WriteReady(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConn(fd);
      return;
    }
    OnConnected(fd, conn);
    IdentifyConn(fd, conn, conn.peer);
  }
  if (!WriteQueued(fd, conn)) CloseConn(fd);
}

// RADAR_HOT: pre-poll write of everything the brains queued
bool TcpTransport::WriteQueued(int fd, Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  conn.wbuf.clear();
  conn.woff = 0;
  return true;
}

void TcpTransport::WriteAllQueued() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    const int fd = it->first;
    if (it->second.connecting || WriteQueued(fd, it->second)) {
      ++it;
      continue;
    }
    CloseConn(fd);  // OnPeerDown runs brain code, which may touch conns_
    it = conns_.upper_bound(fd);
  }
}
// RADAR_HOT_END

void TcpTransport::AbortStalledDials(std::int64_t now_us) {
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn.connecting && now_us >= conn.connect_deadline_us) {
      expired.push_back(fd);
    }
  }
  for (const int fd : expired) {
    ++stats_.connect_timeouts;
    RADAR_LOG_DEBUG("[tcp %d] dial timeout fd=%d peer=%d\n", self_, fd,
                    conns_.at(fd).peer);
    CloseConn(fd);  // schedules the redial with backoff
  }
}

void TcpTransport::PollOnce(int timeout_ms) {
  if (!started_) return;
  AbortStalledDials(Now());
  StartDialsDue(Now());
  // Replies queued since the last iteration leave now, not after a poll()
  // that would only report POLLOUT. Whatever is still queued afterwards is
  // there because the kernel returned EAGAIN: only those sockets, and
  // connects in flight, wait for POLLOUT.
  WriteAllQueued();
  pollfds_.clear();
  if (listen_fd_ >= 0) {
    pollfds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  }
  for (const auto& [fd, conn] : conns_) {
    short events = POLLIN;
    if (conn.connecting || conn.woff < conn.wbuf.size()) {
      events = static_cast<short>(events | POLLOUT);
    }
    pollfds_.push_back(pollfd{fd, events, 0});
  }
  const int ready = ::poll(pollfds_.data(),
                           static_cast<nfds_t>(pollfds_.size()), timeout_ms);
  if (ready <= 0) return;
  for (const pollfd& p : pollfds_) {
    if (p.revents == 0) continue;
    if (p.fd == listen_fd_) {
      AcceptReady();
      continue;
    }
    if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (p.revents & POLLIN) == 0) {
      // Let a connect() failure report through getsockopt for backoff.
      const auto it = conns_.find(p.fd);
      if (it != conns_.end() && it->second.connecting) {
        WriteReady(p.fd);
      } else {
        CloseConn(p.fd);
      }
      continue;
    }
    if ((p.revents & POLLOUT) != 0) WriteReady(p.fd);
    if ((p.revents & POLLIN) != 0) ReadReady(p.fd);
  }
}

}  // namespace radar::transport
