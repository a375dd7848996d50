#include "transport/host_node.h"

#include <array>
#include <limits>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"

namespace radar::transport {

HostNode::HostNode(const NodeConfig& config, NodeId self, Transport* transport,
                   Options options)
    : config_(config),
      transport_(transport),
      options_(std::move(options)),
      agent_(self, config.num_nodes(), &options_.params),
      distance_(config.num_nodes()) {
  RADAR_CHECK_EQ(transport->self(), self);
  RADAR_CHECK(config.IsHost(self));
  agent_.set_weight(config.At(self).weight);
}

bool HostNode::Init(std::string* error) {
  // Rebuild the replica set: WAL if it has history, initial placement
  // otherwise. The WAL is compacted on boot — rebuilt state is rewritten
  // as one 'C' record per live replica — which both bounds its growth
  // across restarts and heals any torn tail left by a SIGKILL.
  std::map<ObjectId, std::int32_t> replicas;
  bool fresh = true;
  if (!options_.wal_path.empty()) {
    std::string read_error;
    if (const auto read = binlog::ReadBinlog(options_.wal_path, &read_error)) {
      fresh = read->records.empty();
      for (const binlog::Record& rec : read->records) {
        std::uint8_t op = 0;
        ObjectId x = kInvalidObject;
        std::int32_t value = 0;
        ByteReader reader(rec.payload);
        reader.Get(op, x, value);
        if (!reader.Exhausted()) continue;
        if (op == kWalCreate && x >= 0 && value >= 1) {
          replicas[x] = value;
        } else if (op == kWalDrop) {
          replicas.erase(x);
        }
      }
    }
  }
  if (fresh) {
    for (ObjectId x = 0; x < options_.num_objects; ++x) {
      if (config_.InitialHome(x) == agent_.self()) replicas[x] = 1;
    }
  }
  if (!options_.wal_path.empty()) {
    if (!wal_.Open(options_.wal_path, options_.fsync, error)) return false;
    if (!wal_.Reset()) {
      if (error != nullptr) *error = options_.wal_path + ": truncate failed";
      return false;
    }
  }
  for (const auto& [x, affinity] : replicas) {
    agent_.AddInitialReplica(x, affinity);
    if (!WalAppend(kWalCreate, x, affinity)) {
      if (error != nullptr) *error = options_.wal_path + ": append failed";
      return false;
    }
  }
  if (transport_->IsPeerUp(config_.redirector())) AnnounceReplicas();
  return true;
}

bool HostNode::WalAppend(std::uint8_t op, ObjectId object, std::int32_t value) {
  if (!wal_.is_open()) return true;
  std::array<std::uint8_t, kWalPayloadSize> payload;
  ByteWriter(payload).Put(op, object, value);
  if (!wal_.Append(transport_->Now(), agent_.self(), agent_.self(),
                   payload.data(), payload.size())) {
    ++counters_.wal_errors;
    return false;
  }
  return true;
}

void HostNode::AnnounceReplicas() {
  for (const ObjectId x : agent_.Objects()) {
    transport_->Send(config_.redirector(),
                     wire::Announce{x, agent_.self(), agent_.Affinity(x)});
  }
}

void HostNode::OnFrame(NodeId from, const wire::DecodedFrame& frame) {
  switch (wire::TypeOf(frame.msg)) {
    case wire::MsgType::kRequest:
      HandleRequest(from, frame.seq, std::get<wire::Request>(frame.msg));
      break;
    case wire::MsgType::kReplicate: {
      const auto& m = std::get<wire::Replicate>(frame.msg);
      HandleCreate(from, frame.seq, core::CreateObjMethod::kReplicate,
                   m.object, m.unit_load);
      break;
    }
    case wire::MsgType::kMigrate: {
      const auto& m = std::get<wire::Migrate>(frame.msg);
      HandleCreate(from, frame.seq, core::CreateObjMethod::kMigrate, m.object,
                   m.unit_load);
      break;
    }
    case wire::MsgType::kAck:
      HandleAck(from, std::get<wire::Ack>(frame.msg));
      break;
    case wire::MsgType::kPlacementStat: {
      // Load reports reach a host only through the redirector's relay,
      // which accepts them from hosts alone.
      const auto& stat = std::get<wire::PlacementStat>(frame.msg);
      if (from == config_.redirector() && stat.host != agent_.self() &&
          config_.IsHost(stat.host) && stat.load >= 0.0 &&
          stat.weight > 0.0) {
        peer_stats_[stat.host] = PeerStat{stat.load, stat.weight};
        ++counters_.stats_seen;
      }
      break;
    }
    case wire::MsgType::kShutdown:
      shutdown_ = true;
      break;
    default:
      break;  // hello/redirect/announce: not addressed to a host brain
  }
}

// RADAR_HOT: HostNode request servicing (one per fetch)
void HostNode::HandleRequest(NodeId from, std::uint64_t seq,
                             const wire::Request& req) {
  // Preference path of the response: this host, then the client's gateway
  // (real mode has no router database, so the path is the two endpoints).
  // Only a host gateway joins it: every node on the path is a placement
  // candidate, and a client or the redirector never answers a CreateObj.
  request_path_.clear();
  request_path_.push_back(agent_.self());
  if (config_.IsHost(req.gateway) && req.gateway != agent_.self()) {
    request_path_.push_back(req.gateway);
  }
  const bool hosted = req.object >= 0 &&
                      agent_.RecordServicedIfHosted(req.object, request_path_);
  if (hosted) {
    ++counters_.requests_serviced;
  } else {
    ++counters_.requests_unhosted;
  }
  transport_->Send(from, wire::Ack{seq, hosted, false});
}
// RADAR_HOT_END

void HostNode::HandleCreate(NodeId from, std::uint64_t seq,
                            core::CreateObjMethod method, ObjectId object,
                            double unit_load) {
  // CreateObj comes from a peer host's placement round; from any other
  // peer an accepted copy would be recorded by the redirector.
  core::CreateObjResponse resp;
  if (config_.IsHost(from) && object >= 0 && unit_load >= 0.0) {
    resp = agent_.HandleCreateObj(method, object, unit_load,
                                  transport_->Now());
  }
  if (resp.accepted) {
    ++counters_.create_accepted;
    WalAppend(kWalCreate, object, agent_.Affinity(object));
    // Fig. 4: the recipient notifies x's redirector — after the copy
    // exists, preserving the subset invariant.
    transport_->Send(
        config_.redirector(),
        wire::Replicate{object, from, agent_.self(), unit_load});
  } else {
    ++counters_.create_refused;
  }
  transport_->Send(from, wire::Ack{seq, resp.accepted, resp.created_new_copy});
}

void HostNode::HandleAck(NodeId from, const wire::Ack& ack) {
  // Only the awaited peer's answer to the awaited frame resumes the round;
  // anything else (an answer to a Replicate note, a stray seq) is ignored.
  if (awaiting_peer_ == kInvalidNode || from != awaiting_peer_ ||
      ack.acked_seq != awaiting_seq_) {
    return;
  }
  awaiting_peer_ = kInvalidNode;
  Settle(ack.accepted);
  Drive();
}

void HostNode::OnPeerUp(NodeId peer) {
  if (peer == config_.redirector()) AnnounceReplicas();
}

void HostNode::OnPeerDown(NodeId peer) {
  peer_stats_.erase(peer);
  // The exchange in flight with the dead peer resolves as a refusal: for a
  // CreateObj or a drop that means keeping our copy — the conservative
  // side. A late answer carries a seq nobody awaits.
  if (awaiting_peer_ == peer) {
    awaiting_peer_ = kInvalidNode;
    Settle(false);
    Drive();
  }
}

void HostNode::OnTick() {
  const std::int64_t now = transport_->Now();
  if (next_measure_at_ < 0) {
    next_measure_at_ = now + options_.params.measurement_interval;
    next_placement_at_ = now + options_.params.placement_interval;
    return;
  }
  if (now >= next_measure_at_) {
    agent_.OnMeasurementTick(now);
    next_measure_at_ = now + options_.params.measurement_interval;
    transport_->Send(
        config_.redirector(),
        wire::PlacementStat{
            agent_.self(), agent_.AdmissionLoad(), agent_.weight(),
            static_cast<std::uint32_t>(agent_.NumObjects())});
  }
  if (now >= next_placement_at_) {
    // A round still waiting on an exchange keeps the host: the next one
    // starts at the next interval after it completes.
    if (!round_) {
      round_.emplace(agent_.Placement(*this, now));
      Drive();
    }
    next_placement_at_ = now + options_.params.placement_interval;
  }
}

void HostNode::Drive() {
  while (!round_->done()) {
    const core::PlacementIntent& intent = round_->intent();
    const NodeId self = agent_.self();
    const bool create =
        intent.kind == core::PlacementIntent::Kind::kCreateObj;
    const NodeId peer = create ? intent.to : config_.redirector();
    if (!transport_->IsPeerUp(peer)) {
      Settle(false);  // no exchange with a peer that is down
      continue;
    }
    if (!create && intent.affinity > 1) {
      // The redirector lowers its record on receipt and never refuses, so
      // the Announce needs no answer.
      transport_->Send(peer,
                       wire::Announce{intent.x, self, intent.affinity - 1});
      Settle(true);
      continue;
    }
    wire::Message msg;
    if (!create) {
      msg = wire::Migrate{intent.x, self, kInvalidNode, 0.0};  // may I drop?
    } else if (intent.method == core::CreateObjMethod::kMigrate) {
      msg = wire::Migrate{intent.x, self, peer, intent.unit_load};
    } else {
      msg = wire::Replicate{intent.x, self, peer, intent.unit_load};
    }
    awaiting_seq_ = transport_->Send(peer, msg);
    awaiting_peer_ = peer;
    return;
  }
  const core::PlacementStats& stats = round_->stats();
  ++counters_.placement_rounds;
  counters_.affinity_drops += static_cast<std::uint64_t>(stats.affinity_drops);
  counters_.geo_migrations += static_cast<std::uint64_t>(stats.geo_migrations);
  counters_.geo_replications +=
      static_cast<std::uint64_t>(stats.geo_replications);
  counters_.offload_migrations +=
      static_cast<std::uint64_t>(stats.offload_migrations);
  counters_.offload_replications +=
      static_cast<std::uint64_t>(stats.offload_replications);
  last_round_ = stats;
  round_.reset();
}

void HostNode::Settle(bool verdict) {
  const core::PlacementIntent& intent = round_->intent();
  if (verdict && intent.kind == core::PlacementIntent::Kind::kReduceAffinity) {
    // The round sheds one unit of whatever the affinity is now.
    const int after = agent_.Affinity(intent.x) - 1;
    if (after > 0) {
      WalAppend(kWalCreate, intent.x, after);
    } else {
      WalAppend(kWalDrop, intent.x, 0);
    }
  }
  round_->Resume(verdict);
}

std::int32_t HostNode::Distance(NodeId from, NodeId to) const {
  return distance_.Distance(from, to);
}

NodeId HostNode::FindOffloadRecipient(NodeId self) {
  // Cluster's directory rule over the relayed reports: the least-loaded
  // reachable host under the low watermark (std::map order makes the
  // tie-break the lowest node id).
  NodeId best = kInvalidNode;
  double best_load = options_.params.low_watermark;
  for (const auto& [peer, stat] : peer_stats_) {
    if (peer == self || !transport_->IsPeerUp(peer)) continue;
    const double load = stat.load / stat.weight;
    if (load < best_load) {
      best_load = load;
      best = peer;
    }
  }
  return best;
}

double HostNode::ReportedLoad(NodeId host) const {
  const auto it = peer_stats_.find(host);
  return it != peer_stats_.end()
             ? it->second.load / it->second.weight
             : std::numeric_limits<double>::infinity();
}

double HostNode::HostWeight(NodeId host) const {
  const auto it = peer_stats_.find(host);
  return it != peer_stats_.end() ? it->second.weight : 1.0;
}

}  // namespace radar::transport
