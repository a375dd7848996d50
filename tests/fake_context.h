// A scriptable PlacementContext for unit-testing HostAgent in isolation.
// It answers the round's queries from its fields and resolves its intents
// inline (RunPlacement).
#pragma once

#include <set>
#include <vector>

#include "core/distance.h"
#include "core/host_agent.h"
#include "core/protocol.h"
#include "core/redirector.h"

namespace radar::core::testing {

class FakeContext : public PlacementContext {
 public:
  struct Call {
    NodeId from;
    NodeId to;
    CreateObjMethod method;
    ObjectId x;
    double unit_load;
  };

  explicit FakeContext(std::int32_t num_nodes,
                       double distribution_constant = 2.0)
      : oracle(num_nodes), redirector(oracle, distribution_constant) {}

  /// Drives one placement round of `agent`, resolving each intent inline
  /// the way Cluster does: a CreateObj through the scripted acceptance
  /// (the redirector learns of the copy before the verdict returns), a
  /// ReduceAffinity at the redirector.
  PlacementStats RunPlacement(HostAgent& agent, SimTime now) {
    PlacementRound round = agent.Placement(*this, now);
    while (!round.done()) {
      const PlacementIntent& i = round.intent();
      round.Resume(i.kind == PlacementIntent::Kind::kCreateObj
                       ? CreateObj(agent.self(), i)
                       : redirector.ReduceAffinity(i.x, agent.self(),
                                                   i.affinity));
    }
    return round.stats();
  }

  bool CreateObj(NodeId from, const PlacementIntent& i) {
    calls.push_back(Call{from, i.to, i.method, i.x, i.unit_load});
    if (!accept_all && accepting.count(i.to) == 0) return false;
    redirector.OnReplicaCreated(i.x, i.to);
    return true;
  }

  std::int32_t Distance(NodeId from, NodeId to) const override {
    return oracle.Distance(from, to);
  }

  NodeId FindOffloadRecipient(NodeId) override { return offload_recipient; }

  double ReportedLoad(NodeId) const override { return reported_load; }

  MatrixDistanceOracle oracle;
  Redirector redirector;
  std::vector<Call> calls;
  bool accept_all = true;
  std::set<NodeId> accepting;  // consulted when accept_all == false
  NodeId offload_recipient = kInvalidNode;
  double reported_load = 0.0;
};

}  // namespace radar::core::testing
