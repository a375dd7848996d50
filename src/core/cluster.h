// The hosting platform's control plane: all host agents plus the
// redirector group. Cluster answers a placement round's queries
// (PlacementContext) and resolves its intents inline.
//
// Cluster is deliberately free of any event-driven machinery so that unit
// and property tests can drive the protocol step by step; the simulation
// driver owns the clock and calls into Cluster at the right simulated
// times, registering hooks to charge object-copy traffic to the network.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"
#include "core/distance.h"
#include "core/host_agent.h"
#include "core/params.h"
#include "core/protocol.h"
#include "core/redirector.h"

namespace radar::core {

class Cluster : public PlacementContext {
 public:
  /// Called whenever a CreateObj acceptance moved an object: `copied` is
  /// true when actual object bytes travel from -> to (a brand-new copy),
  /// false for a pure affinity increment.
  using TransferHook = std::function<void(
      NodeId from, NodeId to, ObjectId x, CreateObjMethod method, bool copied)>;

  /// Optional per-object replica cap (Sec. 5: objects with non-commuting
  /// updates keep a bounded replica set; cap 1 = migrate-only). Return 0
  /// for "unlimited".
  using ReplicaCapFn = std::function<int(ObjectId)>;

  /// Decides the network-level fate of a CreateObj exchange (fault
  /// injection); unset means every exchange delivers.
  using RpcFilter = std::function<RpcFate(NodeId from, NodeId to,
                                          CreateObjMethod method, ObjectId x)>;

  /// Host liveness oracle (fault injection); unset means always up.
  using LivenessFn = std::function<bool(NodeId)>;

  Cluster(std::int32_t num_nodes, const DistanceOracle& distance,
          const ProtocolParams& params, std::vector<NodeId> redirector_homes);

  std::int32_t num_nodes() const { return static_cast<std::int32_t>(agents_.size()); }
  const ProtocolParams& params() const { return params_; }

  HostAgent& host(NodeId n);
  const HostAgent& host(NodeId n) const;
  RedirectorGroup& redirectors() { return redirectors_; }
  const RedirectorGroup& redirectors() const { return redirectors_; }

  void set_transfer_hook(TransferHook hook) { transfer_hook_ = std::move(hook); }
  void set_replica_cap(ReplicaCapFn fn) { replica_cap_ = std::move(fn); }
  void set_rpc_filter(RpcFilter filter) { rpc_filter_ = std::move(filter); }
  void set_liveness(LivenessFn fn) { liveness_ = std::move(fn); }

  /// True when `n` is up (always true without a liveness oracle).
  bool HostLive(NodeId n) const;

  /// Availability repair: copies x from `from` (which must hold it) to
  /// `to`, bypassing the Fig. 4 admission watermarks — the floor outranks
  /// load balancing. The exchange still passes the fault filter as a
  /// REPLICATE transfer, so repair traffic is itself lossy under faults;
  /// returns false when the transfer was lost, `to` is down or full, or
  /// `to` already holds x. On success the redirector learns of the copy
  /// and the transfer hook is charged as usual.
  bool RepairReplicate(NodeId from, NodeId to, ObjectId x, SimTime now);

  /// Bootstrap: installs the initial sole copy of x on `home` and
  /// registers it with x's redirector.
  void PlaceInitialObject(ObjectId x, NodeId home);

  /// Request distribution entry point: the redirector for x picks the
  /// servicing replica for a request entering at `gateway`.
  NodeId RouteRequest(ObjectId x, NodeId gateway);

  /// Runs host n's measurement tick at `now`.
  void TickMeasurement(NodeId n, SimTime now);

  /// Runs host n's placement round at `now`, resolving each intent as it
  /// is asked: a CreateObj through CreateObjRpc, a ReduceAffinity at x's
  /// redirector. Resolving inline models each exchange as a synchronous
  /// RPC: its round trip (tens of milliseconds) is negligible against the
  /// 100-second placement interval, and the object-copy traffic is
  /// charged separately by the transfer hook.
  PlacementStats RunPlacement(NodeId n, SimTime now);

  /// Sends CreateObj(method, x, unit_load) from `from` to candidate `to`
  /// through the fault filter and returns the verdict the source sees. On
  /// acceptance x's redirector learns of the new copy / affinity unit
  /// before this returns (Fig. 4's "notify x's redirector").
  CreateObjResponse CreateObjRpc(NodeId from, NodeId to,
                                 CreateObjMethod method, ObjectId x,
                                 double unit_load);

  // ---- PlacementContext ----
  std::int32_t Distance(NodeId from, NodeId to) const override;
  NodeId FindOffloadRecipient(NodeId self) override;
  double ReportedLoad(NodeId host) const override;
  double HostWeight(NodeId host) const override;

  // ---- Census (metrics / tests) ----

  /// Mean number of physical replicas per object.
  double AverageReplicasPerObject() const;

  /// Checks the subset invariant: every replica the redirectors record
  /// physically exists on the corresponding host. Aborts on violation.
  void CheckRedirectorSubsetInvariant() const;

  std::int64_t total_transfers() const { return total_transfers_; }
  std::int64_t total_copies() const { return total_copies_; }

 private:
  ProtocolParams params_;
  const DistanceOracle& distance_;
  RedirectorGroup redirectors_;
  std::vector<HostAgent> agents_;
  TransferHook transfer_hook_;
  ReplicaCapFn replica_cap_;
  RpcFilter rpc_filter_;
  LivenessFn liveness_;
  SimTime now_ = 0;  // time of the in-progress placement round
  std::int64_t total_transfers_ = 0;
  std::int64_t total_copies_ = 0;
};

}  // namespace radar::core
