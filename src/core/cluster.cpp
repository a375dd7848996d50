#include "core/cluster.h"

#include <algorithm>

#include "common/check.h"

namespace radar::core {

Cluster::Cluster(std::int32_t num_nodes, const DistanceOracle& distance,
                 const ProtocolParams& params,
                 std::vector<NodeId> redirector_homes)
    : params_(params),
      distance_(distance),
      redirectors_(distance, params.distribution_constant,
                   std::move(redirector_homes)) {
  RADAR_CHECK_GT(num_nodes, 0);
  params_.CheckStructure();
  agents_.reserve(static_cast<std::size_t>(num_nodes));
  for (NodeId n = 0; n < num_nodes; ++n) {
    agents_.emplace_back(n, num_nodes, &params_);
  }
}

HostAgent& Cluster::host(NodeId n) {
  RADAR_CHECK_GE(n, 0);
  RADAR_CHECK_LT(n, num_nodes());
  return agents_[static_cast<std::size_t>(n)];
}

const HostAgent& Cluster::host(NodeId n) const {
  RADAR_CHECK_GE(n, 0);
  RADAR_CHECK_LT(n, num_nodes());
  return agents_[static_cast<std::size_t>(n)];
}

void Cluster::PlaceInitialObject(ObjectId x, NodeId home) {
  host(home).AddInitialReplica(x);
  redirectors_.For(x).RegisterObject(x, home);
}

NodeId Cluster::RouteRequest(ObjectId x, NodeId gateway) {
  return redirectors_.For(x).ChooseReplica(x, gateway);
}

void Cluster::TickMeasurement(NodeId n, SimTime now) {
  host(n).OnMeasurementTick(now);
}

PlacementStats Cluster::RunPlacement(NodeId n, SimTime now) {
  now_ = now;
  PlacementRound round = host(n).Placement(*this, now);
  while (!round.done()) {
    const PlacementIntent& intent = round.intent();
    round.Resume(
        intent.kind == PlacementIntent::Kind::kCreateObj
            ? CreateObjRpc(n, intent.to, intent.method, intent.x,
                           intent.unit_load)
                  .accepted
            : redirectors_.For(intent.x).ReduceAffinity(intent.x, n,
                                                        intent.affinity));
  }
  return round.stats();
}

CreateObjResponse Cluster::CreateObjRpc(NodeId from, NodeId to,
                                        CreateObjMethod method, ObjectId x,
                                        double unit_load) {
  RADAR_CHECK_NE(from, to);
  const RpcFate fate =
      rpc_filter_ ? rpc_filter_(from, to, method, x) : RpcFate::kDeliver;
  if (fate == RpcFate::kLost) {
    // The request (or all its resends) never reached the candidate; the
    // source sees a refusal and keeps its copy — nothing moved.
    return {};
  }
  if (method == CreateObjMethod::kReplicate && replica_cap_) {
    const int cap = replica_cap_(x);
    if (cap > 0 && redirectors_.For(x).ReplicaCount(x) >= cap &&
        !host(to).HasObject(x)) {
      return {};  // consistency-limited object (Sec. 5): refuse new copies
    }
  }
  const CreateObjResponse resp =
      host(to).HandleCreateObj(method, x, unit_load, now_);
  if (resp.accepted) {
    // Fig. 4: the recipient notifies the redirector *after* the copy
    // exists, preserving the subset invariant.
    redirectors_.For(x).OnReplicaCreated(x, to);
    ++total_transfers_;
    if (resp.created_new_copy) ++total_copies_;
    if (transfer_hook_) {
      transfer_hook_(from, to, x, method, resp.created_new_copy);
    }
  }
  if (fate == RpcFate::kAcceptedAckLost) {
    // The candidate accepted — its copy and the redirector notice are real
    // and stay — but the ack never made it back. The source must treat
    // the exchange as refused (a migration keeps its replica: an extra
    // copy, never a lost object).
    return {};
  }
  return resp;
}

bool Cluster::HostLive(NodeId n) const {
  return !liveness_ || liveness_(n);
}

bool Cluster::RepairReplicate(NodeId from, NodeId to, ObjectId x,
                              SimTime now) {
  RADAR_CHECK_NE(from, to);
  RADAR_CHECK_MSG(host(from).HasObject(x), "repair source lost the object");
  if (!HostLive(to) || host(to).HasObject(x) || host(to).StorageFull()) {
    return false;
  }
  const double unit_load = host(from).UnitLoad(x);
  if (rpc_filter_ &&
      rpc_filter_(from, to, CreateObjMethod::kReplicate, x) ==
          RpcFate::kLost) {
    // Repair traffic rides the same lossy control plane; a lost repair
    // just waits for the next pass. (A lost *ack* is immaterial here: the
    // floor repairer learns the outcome from the redirector, not from the
    // source host.)
    return false;
  }
  now_ = now;
  host(to).AcceptRepairReplica(x, unit_load, now);
  redirectors_.For(x).OnReplicaCreated(x, to);
  ++total_transfers_;
  ++total_copies_;
  if (transfer_hook_) {
    transfer_hook_(from, to, x, CreateObjMethod::kReplicate, true);
  }
  return true;
}

std::int32_t Cluster::Distance(NodeId from, NodeId to) const {
  return distance_.Distance(from, to);
}

NodeId Cluster::FindOffloadRecipient(NodeId self) {
  // Idealized load directory (Sec. 4.2.2): pick the least-loaded host whose
  // reported (weight-normalized) load is under the low watermark. Reports
  // are the hosts' admission-load estimates, so in-flight acquisitions
  // count against them.
  NodeId best = kInvalidNode;
  double best_load = params_.low_watermark;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self || !HostLive(n)) continue;
    const double load = ReportedLoad(n);
    if (load < best_load) {
      best_load = load;
      best = n;
    }
  }
  return best;
}

double Cluster::ReportedLoad(NodeId n) const {
  const HostAgent& agent = host(n);
  return agent.AdmissionLoad() / agent.weight();
}

double Cluster::HostWeight(NodeId n) const { return host(n).weight(); }

double Cluster::AverageReplicasPerObject() const {
  const auto [replicas, objects] = redirectors_.TotalReplicasAndObjects();
  return objects > 0 ? static_cast<double>(replicas) /
                           static_cast<double>(objects)
                     : 0.0;
}

void Cluster::CheckRedirectorSubsetInvariant() const {
  for (int i = 0; i < redirectors_.size(); ++i) {
    const Redirector& r = const_cast<RedirectorGroup&>(redirectors_).At(i);
    for (const ObjectId x : r.Objects()) {
      for (const NodeId h : r.ReplicaHosts(x)) {
        RADAR_CHECK_MSG(host(h).HasObject(x),
                        "redirector records a replica that does not exist");
        RADAR_CHECK_MSG(HostLive(h),
                        "redirector records a replica on a crashed host");
      }
    }
  }
}

}  // namespace radar::core
