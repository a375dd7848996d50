#include "transport/redirector_node.h"

#include <utility>

#include "common/check.h"
#include "core/params.h"

namespace radar::transport {

RedirectorNode::RedirectorNode(const NodeConfig& config, Transport* transport,
                               Options options)
    : config_(config),
      transport_(transport),
      options_(options),
      distance_(config.num_nodes()),
      redirector_(distance_, core::ProtocolParams{}.distribution_constant,
                  config.redirector()) {
  RADAR_CHECK_EQ(transport->self(), config.redirector());
  for (ObjectId x = 0; x < options_.num_objects; ++x) {
    redirector_.RegisterObject(x, config_.InitialHome(x));
  }
}

void RedirectorNode::OnFrame(NodeId from, const wire::DecodedFrame& frame) {
  // Replica-set and load frames speak for a host; from any other peer they
  // would register a client as a replica holder or relay its "load".
  const bool from_host = config_.IsHost(from);
  switch (wire::TypeOf(frame.msg)) {
    // RADAR_HOT: RedirectorNode request redirect (Fig. 2, one per request)
    case wire::MsgType::kRequest: {
      const auto& req = std::get<wire::Request>(frame.msg);
      NodeId host = kInvalidNode;
      if (req.object >= 0 && redirector_.KnowsObject(req.object) &&
          config_.Has(req.gateway)) {
        host = redirector_.ChooseReplica(req.object, req.gateway);
      }
      if (host == kInvalidNode) {
        ++counters_.redirects_no_replica;
      } else {
        ++counters_.redirects;
      }
      transport_->Send(from, wire::Redirect{req.object, host});
      break;
    }
    // RADAR_HOT_END
    case wire::MsgType::kReplicate: {
      // A host reports it created a copy (or bumped its affinity) after
      // accepting a CreateObj — recorded after the fact, so the registry
      // stays a subset of physical copies.
      const auto& note = std::get<wire::Replicate>(frame.msg);
      const bool recorded = from_host && note.object >= 0 &&
                            redirector_.KnowsObject(note.object) &&
                            note.to == from;
      if (recorded) {
        redirector_.OnReplicaCreated(note.object, note.to);
        ++counters_.creates_recorded;
      }
      transport_->Send(from, wire::Ack{frame.seq, recorded, false});
      break;
    }
    case wire::MsgType::kMigrate: {
      // Drop arbitration: `from` asks to drop its sole-affinity copy. The
      // record may be gone (pruned while the host's link was down, and the
      // request drained from its spool before the re-announce) or hold
      // more units than the host meant to shed: both are refusals.
      const auto& req = std::get<wire::Migrate>(frame.msg);
      const bool granted = from_host && req.object >= 0 &&
                           redirector_.KnowsObject(req.object) &&
                           req.from == from &&
                           redirector_.AffinityOf(req.object, from) == 1 &&
                           redirector_.RequestDrop(req.object, from);
      if (granted) {
        ++counters_.drops_granted;
      } else {
        ++counters_.drops_refused;
      }
      transport_->Send(from, wire::Ack{frame.seq, granted, false});
      break;
    }
    case wire::MsgType::kAnnounce: {
      // "host holds `affinity` units of x": restores an unrecorded replica
      // (a re-announce after a restart) and lowers a record above it (a
      // placement round shed a unit). Either is idempotent; raising is
      // left to Replicate notes.
      const auto& ann = std::get<wire::Announce>(frame.msg);
      const bool valid = from_host && ann.host == from && ann.affinity >= 1 &&
                         ann.object >= 0 &&
                         redirector_.KnowsObject(ann.object);
      const int recorded = valid ? redirector_.AffinityOf(ann.object, from) : 0;
      if (valid && recorded == 0) {
        redirector_.RestoreReplica(ann.object, from, ann.affinity);
        ++counters_.announces_restored;
      } else if (valid && ann.affinity < recorded) {
        redirector_.OnAffinityReduced(ann.object, from, ann.affinity);
        ++counters_.affinity_reductions;
      } else {
        ++counters_.announces_ignored;
      }
      break;
    }
    case wire::MsgType::kPlacementStat: {
      const auto& stat = std::get<wire::PlacementStat>(frame.msg);
      if (!from_host || stat.host != from) break;
      // The Sec. 4.2.2 load exchange, hub-and-spoke: relay to every other
      // host. A down host's relays spool and drain on its reconnect.
      for (const NodeId peer : config_.hosts()) {
        if (peer == from) continue;
        transport_->Send(peer, stat);
        ++counters_.stats_relayed;
      }
      break;
    }
    case wire::MsgType::kShutdown:
      shutdown_ = true;
      break;
    default:
      break;  // hello/redirect/ack: nothing for the redirector brain
  }
}

void RedirectorNode::OnPeerDown(NodeId peer) {
  if (!config_.IsHost(peer)) return;
  const int pruned = redirector_.PruneHost(peer);
  if (pruned > 0) {
    ++counters_.hosts_pruned;
    counters_.replicas_pruned += static_cast<std::uint64_t>(pruned);
  }
}

std::int32_t RedirectorNode::CountObjectsWithoutReplica() const {
  std::int32_t lost = 0;
  for (ObjectId x = 0; x < options_.num_objects; ++x) {
    if (redirector_.ReplicaCount(x) == 0) ++lost;
  }
  return lost;
}

}  // namespace radar::transport
