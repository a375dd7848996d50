// The hosting-server brain of real-system mode (DESIGN.md §16).
//
// A HostNode wraps one core::HostAgent — the *same* class every simulated
// host runs — behind the Transport seam, so Fig. 4 admission, the Figs. 3-5
// placement round, the Sec. 2.1 load estimates, and the Theorem 1-4 bounds
// are shared verbatim between simulator and daemon. What the real-mode
// brain adds around the agent:
//
//   - request servicing: a redirected client fetch (kRequest) feeds
//     RecordServicedIfHosted and is answered with an Ack. The preference
//     path is this host plus the request's gateway when that gateway is a
//     host (real mode has no router database, and only a host can take a
//     CreateObj),
//   - Fig. 4 over the wire: kReplicate/kMigrate CreateObj frames from
//     peer hosts go through HandleCreateObj (any other sender is
//     refused); on acceptance the *recipient* notifies the redirector of
//     its new copy (the paper's "notify x's redirector", which keeps the
//     registry a subset of physical copies),
//   - the placement round over the wire: each placement interval starts
//     the agent's round (unless one is still running), and HostNode
//     resolves its intents with frames it already speaks. CreateObj is a
//     Replicate/Migrate frame to the peer host; a sole-affinity drop is
//     the Migrate drop-arbitration frame to the redirector; an
//     affinity-unit reduction is an Announce carrying the lowered
//     affinity, which needs no answer. One exchange is in flight at a
//     time, and an exchange with a peer that is down, or goes down before
//     it answers, resolves as a refusal — a relocation can duplicate an
//     object, never lose one. The round's queries are answered from the
//     PlacementStats the redirector relays (the Sec. 4.2.2 load
//     directory; a report from any other peer is dropped) and
//     CliqueDistance,
//   - a state WAL: every replica-set change is appended to a binlog
//     ('C' object affinity / 'D' object), so a SIGKILL'd daemon rebuilds
//     its replica set on restart and re-announces it (kAnnounce) — the
//     real-mode equivalent of ResetAfterCrash's "disk survives".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "binlog/binlog.h"
#include "core/host_agent.h"
#include "core/params.h"
#include "core/protocol.h"
#include "transport/node_config.h"
#include "transport/transport.h"

namespace radar::transport {

/// WAL op bytes (record payload: {op u8, object i32 LE, value i32 LE}).
inline constexpr std::uint8_t kWalCreate = 'C';  ///< value = affinity after
inline constexpr std::uint8_t kWalDrop = 'D';    ///< value unused (0)
inline constexpr std::size_t kWalPayloadSize = 9;

class HostNode final : public Handler, private core::PlacementContext {
 public:
  struct Options {
    /// Total object population; this node preloads objects whose
    /// InitialHome is self (first boot only — a non-empty WAL wins).
    std::int32_t num_objects = 0;
    /// Replica-set WAL path; empty disables persistence (tests).
    std::string wal_path;
    binlog::FsyncPolicy fsync = binlog::FsyncPolicy::kNone;
    core::ProtocolParams params;
  };

  struct Counters {
    std::uint64_t requests_serviced = 0;
    std::uint64_t requests_unhosted = 0;
    std::uint64_t create_accepted = 0;
    std::uint64_t create_refused = 0;
    std::uint64_t stats_seen = 0;
    std::uint64_t wal_errors = 0;
    std::uint64_t placement_rounds = 0;  ///< completed rounds
    // Relocations of the completed rounds: their PlacementStats, summed.
    std::uint64_t affinity_drops = 0;
    std::uint64_t geo_migrations = 0;
    std::uint64_t geo_replications = 0;
    std::uint64_t offload_migrations = 0;
    std::uint64_t offload_replications = 0;
  };

  /// `config` and `transport` must outlive the node.
  HostNode(const NodeConfig& config, NodeId self, Transport* transport,
           Options options);

  /// Replays the WAL (or seeds initial replicas into a fresh one) and
  /// announces the replica set if the redirector is already reachable.
  /// False + *error on WAL I/O failure.
  bool Init(std::string* error);

  // Handler:
  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override;
  void OnPeerUp(NodeId peer) override;
  void OnPeerDown(NodeId peer) override;

  /// Drives the measurement / stat-report / placement timers; call often
  /// (every event-loop iteration) — it no-ops until an interval elapses.
  void OnTick();

  bool shutdown_requested() const { return shutdown_; }
  const core::HostAgent& agent() const { return agent_; }
  const Counters& counters() const { return counters_; }
  /// True while a placement round waits on an exchange.
  bool placement_running() const { return round_.has_value(); }
  /// What the last completed placement round did.
  const core::PlacementStats& last_round() const { return last_round_; }

 private:
  struct PeerStat {
    double load = 0.0;
    double weight = 1.0;
  };

  // PlacementContext, answered from the relayed load reports:
  std::int32_t Distance(NodeId from, NodeId to) const override;
  NodeId FindOffloadRecipient(NodeId self) override;
  double ReportedLoad(NodeId host) const override;
  double HostWeight(NodeId host) const override;

  void HandleRequest(NodeId from, std::uint64_t seq, const wire::Request& req);
  void HandleCreate(NodeId from, std::uint64_t seq, core::CreateObjMethod m,
                    ObjectId object, double unit_load);
  void HandleAck(NodeId from, const wire::Ack& ack);
  void AnnounceReplicas();
  bool WalAppend(std::uint8_t op, ObjectId object, std::int32_t value);

  /// Resolves the round's intents until one waits on a peer's answer or
  /// the round completes.
  void Drive();
  /// Resumes the round with `verdict` on its intent, journaling a granted
  /// affinity reduction first.
  void Settle(bool verdict);

  const NodeConfig& config_;
  Transport* transport_;
  Options options_;
  core::HostAgent agent_;
  CliqueDistance distance_;
  binlog::BinlogWriter wal_;
  std::map<NodeId, PeerStat> peer_stats_;
  /// HandleRequest's preference path, reused across requests.
  std::vector<NodeId> request_path_;
  /// The running placement round (declared after agent_, which its frame
  /// refers to) and the exchange it waits on: the peer that must Ack the
  /// frame sent under awaiting_seq_ (kInvalidNode when none).
  std::optional<core::PlacementRound> round_;
  NodeId awaiting_peer_ = kInvalidNode;
  std::uint64_t awaiting_seq_ = 0;
  core::PlacementStats last_round_;
  Counters counters_;
  std::int64_t next_measure_at_ = -1;
  std::int64_t next_placement_at_ = -1;
  bool shutdown_ = false;
};

}  // namespace radar::transport
