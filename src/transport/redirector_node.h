// The redirector brain of real-system mode (DESIGN.md §16).
//
// Wraps one core::Redirector — the same Fig. 2 chooser and replica
// registry the simulator uses — behind the Transport seam. Real-mode v1
// is hub-and-spoke: this node answers client redirect queries, arbitrates
// replica drops, applies affinity reductions, relays host load reports
// (the Sec. 4.2.2 exchange), and tracks replica liveness through
// connection state. Replica-set and load frames (Replicate, Migrate,
// Announce, PlacementStat) count only from host-role peers:
//
//   - a host disconnecting is treated as a crash: its replicas are pruned
//     from the registry (PruneHost) so no client is redirected into a
//     dead host — objects whose whole set is pruned stay registered with
//     zero live replicas,
//   - a host reconnecting re-announces its disk-resident replica set
//     (kAnnounce); announcements are idempotent (RestoreReplica only when
//     the replica is not recorded, OnAffinityReduced only when the
//     announced affinity is below the record), so a flapping connection
//     never double-counts affinity,
//   - a drop request is granted only for a recorded sole-affinity replica
//     and only while another replica remains (the Redirector's default
//     floor of one); anything else is refused.
#pragma once

#include <cstdint>

#include "core/redirector.h"
#include "transport/node_config.h"
#include "transport/transport.h"

namespace radar::transport {

class RedirectorNode final : public Handler {
 public:
  struct Options {
    /// Total object population (round-robin initial registration).
    std::int32_t num_objects = 0;
  };

  struct Counters {
    std::uint64_t redirects = 0;
    std::uint64_t redirects_no_replica = 0;
    std::uint64_t creates_recorded = 0;
    std::uint64_t drops_granted = 0;
    std::uint64_t drops_refused = 0;
    std::uint64_t announces_restored = 0;
    std::uint64_t announces_ignored = 0;
    std::uint64_t affinity_reductions = 0;
    std::uint64_t stats_relayed = 0;
    std::uint64_t hosts_pruned = 0;
    std::uint64_t replicas_pruned = 0;
  };

  /// `config` and `transport` must outlive the node.
  RedirectorNode(const NodeConfig& config, Transport* transport,
                 Options options);

  // Handler:
  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override;
  void OnPeerDown(NodeId peer) override;

  bool shutdown_requested() const { return shutdown_; }
  const core::Redirector& redirector() const { return redirector_; }
  const Counters& counters() const { return counters_; }

  /// Objects currently recorded with zero live replicas (the conservation
  /// metric: must be 0 once every host is up and announced).
  std::int32_t CountObjectsWithoutReplica() const;

 private:
  const NodeConfig& config_;
  Transport* transport_;
  Options options_;
  CliqueDistance distance_;
  core::Redirector redirector_;
  Counters counters_;
  bool shutdown_ = false;
};

}  // namespace radar::transport
