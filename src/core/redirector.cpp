#include "core/redirector.h"

#include <algorithm>

#include "common/check.h"

namespace radar::core {

Redirector::Redirector(const DistanceOracle& distance,
                       double distribution_constant, NodeId home_node)
    : distance_(distance),
      distribution_constant_(distribution_constant),
      home_node_(home_node) {
  RADAR_CHECK_GT(distribution_constant, 0.0);
}

Redirector::EntryHead& Redirector::HeadOf(ObjectId x) {
  RADAR_CHECK_GE(x, 0);
  if (static_cast<std::size_t>(x) >= table_.size()) {
    table_.resize(static_cast<std::size_t>(x) + 1);
    aff0_.resize(table_.size(), 1);
  }
  return table_[static_cast<std::size_t>(x)];
}

const Redirector::EntryHead& Redirector::HeadOf(ObjectId x) const {
  RADAR_CHECK_GE(x, 0);
  RADAR_CHECK_LT(static_cast<std::size_t>(x), table_.size());
  return table_[static_cast<std::size_t>(x)];
}

std::uint32_t Redirector::AcquireSpill() {
  if (!spill_free_.empty()) {
    const std::uint32_t s = spill_free_.back();
    spill_free_.pop_back();
    return s;
  }
  spill_pool_.emplace_back();
  return static_cast<std::uint32_t>(spill_pool_.size() - 1);
}

void Redirector::ReleaseSpill(std::int64_t slot) {
  SpillSet& s = spill_pool_[static_cast<std::size_t>(slot)];
  // clear() keeps the vectors' capacity: a recycled set re-spills without
  // touching the allocator.
  s.hosts.clear();
  s.rcnts.clear();
  s.affs.clear();
  spill_free_.push_back(static_cast<std::uint32_t>(slot));
}

std::size_t Redirector::FindReplica(ObjectId x, NodeId host) const {
  const EntryHead& e = HeadOf(x);
  const std::uint32_t n = Count(e);
  if (n == 0) return kNpos;
  if (n == 1) return e.host0 == host ? 0 : kNpos;
  const SpillSet& s = SpillOf(e);
  for (std::size_t i = 0; i < n; ++i) {
    if (s.hosts[i] == host) return i;
  }
  return kNpos;
}

void Redirector::InsertReplica(ObjectId x, NodeId host, std::int64_t rcnt,
                               int aff) {
  EntryHead& e = HeadOf(x);
  const std::uint32_t n = Count(e);
  if (n == 0) {
    e.host0 = host;
    e.rcnt_or_spill = rcnt;
    aff0_[static_cast<std::size_t>(x)] = aff;
    SetCount(e, 1);
    return;
  }
  if (n == 1) {
    // Crossing 1 -> 2: move the inline replica into a pooled spill set
    // together with the newcomer, sorted by host id.
    RADAR_CHECK_NE(e.host0, host);
    const std::uint32_t slot = AcquireSpill();
    SpillSet& s = spill_pool_[slot];
    const bool new_first = host < e.host0;
    s.hosts = {new_first ? host : e.host0, new_first ? e.host0 : host};
    s.rcnts = {new_first ? rcnt : e.rcnt_or_spill,
               new_first ? e.rcnt_or_spill : rcnt};
    const int aff0 = aff0_[static_cast<std::size_t>(x)];
    s.affs = {new_first ? aff : aff0, new_first ? aff0 : aff};
    e.rcnt_or_spill = slot;
    SetCount(e, 2);
    return;
  }
  SpillSet& s = SpillOf(e);
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(s.hosts.begin(), s.hosts.end(), host) -
      s.hosts.begin());
  s.hosts.insert(s.hosts.begin() + static_cast<std::ptrdiff_t>(pos), host);
  s.rcnts.insert(s.rcnts.begin() + static_cast<std::ptrdiff_t>(pos), rcnt);
  s.affs.insert(s.affs.begin() + static_cast<std::ptrdiff_t>(pos), aff);
  SetCount(e, n + 1);
}

void Redirector::EraseReplica(ObjectId x, std::size_t pos) {
  EntryHead& e = HeadOf(x);
  const std::uint32_t n = Count(e);
  RADAR_CHECK_LT(pos, n);
  if (n == 1) {
    SetCount(e, 0);
    return;
  }
  SpillSet& s = SpillOf(e);
  if (n == 2) {
    // Shrunk back to a sole replica: move the survivor inline and recycle
    // the spill set, so the request path is one 16-byte head again.
    const std::size_t keep = 1 - pos;
    const NodeId host = s.hosts[keep];
    const std::int64_t rcnt = s.rcnts[keep];
    const int aff = s.affs[keep];
    ReleaseSpill(e.rcnt_or_spill);
    e.host0 = host;
    e.rcnt_or_spill = rcnt;
    aff0_[static_cast<std::size_t>(x)] = aff;
    SetCount(e, 1);
    return;
  }
  s.hosts.erase(s.hosts.begin() + static_cast<std::ptrdiff_t>(pos));
  s.rcnts.erase(s.rcnts.begin() + static_cast<std::ptrdiff_t>(pos));
  s.affs.erase(s.affs.begin() + static_cast<std::ptrdiff_t>(pos));
  SetCount(e, n - 1);
}

void Redirector::ResetCounts(EntryHead& e) {
  // "The redirector resets all request counts to 1 whenever it is notified
  // of any changes to the replica set" (Sec. 3).
  const std::uint32_t n = Count(e);
  if (n == 1) {
    e.rcnt_or_spill = 1;
  } else if (n >= 2) {
    SpillSet& s = SpillOf(e);
    std::fill(s.rcnts.begin(), s.rcnts.end(), std::int64_t{1});
  }
  ++replica_set_changes_;
}

void Redirector::RegisterObject(ObjectId x, NodeId initial_host) {
  EntryHead& e = HeadOf(x);
  RADAR_CHECK_MSG(!Registered(e), "object already registered");
  e.count_reg |= kRegisteredBit;
  InsertReplica(x, initial_host, 1, 1);
}

bool Redirector::KnowsObject(ObjectId x) const {
  return x >= 0 && static_cast<std::size_t>(x) < table_.size() &&
         Registered(table_[static_cast<std::size_t>(x)]);
}

// RADAR_HOT: replica choice (Fig. 2, per request)
NodeId Redirector::ChooseFromSpill(EntryHead& e, NodeId gateway,
                                   const std::int32_t* row) {
  // p: the replica closest to the requesting gateway (ties: replicas are
  // sorted by host id, so the lowest id wins deterministically).
  // q: the replica with the smallest unit request count rcnt/aff.
  // The spill set's SoA vectors are scanned with plain indexing — no
  // pointer chase, and a dense-row oracle costs one virtual call total.
  SpillSet& s = SpillOf(e);
  const std::uint32_t n = Count(e);
  const NodeId* hosts = s.hosts.data();
  std::int64_t* rcnts = s.rcnts.data();
  const int* affs = s.affs.data();
  std::size_t closest = 0;
  std::size_t least = 0;
  std::int32_t closest_distance =
      row != nullptr ? row[hosts[0]] : distance_.Distance(gateway, hosts[0]);
  double least_unit = static_cast<double>(rcnts[0]) / affs[0];
  for (std::size_t i = 1; i < n; ++i) {
    const std::int32_t d =
        row != nullptr ? row[hosts[i]] : distance_.Distance(gateway, hosts[i]);
    if (d < closest_distance) {
      closest_distance = d;
      closest = i;
    }
    const double unit = static_cast<double>(rcnts[i]) / affs[i];
    if (unit < least_unit) {
      least_unit = unit;
      least = i;
    }
  }
  const double closest_unit =
      static_cast<double>(rcnts[closest]) / affs[closest];
  const std::size_t chosen =
      (closest_unit / distribution_constant_ > least_unit) ? least : closest;
  ++rcnts[chosen];
  return hosts[chosen];
}

NodeId Redirector::ChooseReplica(ObjectId x, NodeId gateway) {
  EntryHead& e = HeadOf(x);
  RADAR_CHECK_MSG(Registered(e), "ChooseReplica on unknown object");
  const std::uint32_t n = Count(e);
  if (n == 0) {
    return kInvalidNode;  // every live replica was pruned by a fault
  }
  ++requests_distributed_;

  // A sole replica is both the closest and the least-counted: take it
  // without consulting the distance oracle. Most objects sit in this case
  // for most of a run, so the request path rarely pays for Fig. 2 at all.
  if (n == 1) {
    ++e.rcnt_or_spill;
    return e.host0;
  }
  return ChooseFromSpill(e, gateway, distance_.DistanceRow(gateway));
}

NodeId Redirector::ChooseReplica(ObjectId x, NodeId gateway,
                                 const std::int32_t* row) {
  EntryHead& e = HeadOf(x);
  RADAR_CHECK_MSG(Registered(e), "ChooseReplica on unknown object");
  const std::uint32_t n = Count(e);
  if (n == 0) {
    return kInvalidNode;  // every live replica was pruned by a fault
  }
  ++requests_distributed_;
  if (n == 1) {
    ++e.rcnt_or_spill;
    return e.host0;
  }
  return ChooseFromSpill(e, gateway, row);
}
// RADAR_HOT_END

void Redirector::OnReplicaCreated(ObjectId x, NodeId host) {
  EntryHead& e = HeadOf(x);
  RADAR_CHECK_MSG(Registered(e), "creation notice for unknown object");
  const std::size_t pos = FindReplica(x, host);
  if (pos != kNpos) {
    if (Count(e) == 1) {
      ++aff0_[static_cast<std::size_t>(x)];
    } else {
      ++SpillOf(e).affs[pos];
    }
  } else {
    InsertReplica(x, host, 1, 1);
    if (listener_ != nullptr) listener_->OnReplicaAdded(x, host);
  }
  ResetCounts(e);
}

void Redirector::OnAffinityReduced(ObjectId x, NodeId host, int new_affinity) {
  RADAR_CHECK_GE(new_affinity, 1);
  EntryHead& e = HeadOf(x);
  const std::size_t pos = FindReplica(x, host);
  RADAR_CHECK_MSG(pos != kNpos, "affinity notice for unknown replica");
  int& aff = Count(e) == 1 ? aff0_[static_cast<std::size_t>(x)]
                           : SpillOf(e).affs[pos];
  RADAR_CHECK_LT(new_affinity, aff);
  aff = new_affinity;
  ResetCounts(e);
}

bool Redirector::RequestDrop(ObjectId x, NodeId host) {
  EntryHead& e = HeadOf(x);
  const std::size_t pos = FindReplica(x, host);
  RADAR_CHECK_MSG(pos != kNpos, "drop request for unknown replica");
  const int aff = Count(e) == 1 ? aff0_[static_cast<std::size_t>(x)]
                                : SpillOf(e).affs[pos];
  RADAR_CHECK_MSG(aff == 1, "drop request with affinity > 1");
  if (Count(e) <= static_cast<std::uint32_t>(min_replicas_)) {
    // Never delete the last replica (Sec. 4.2.1); with a replica floor,
    // never delete below it.
    return false;
  }
  // Remove before granting: the recorded set stays a subset of physical
  // replicas, so requests are never routed to a vanishing copy.
  EraseReplica(x, pos);
  if (listener_ != nullptr) listener_->OnReplicaRemoved(x, host);
  ResetCounts(e);
  return true;
}

bool Redirector::ReduceAffinity(ObjectId x, NodeId host, int affinity) {
  if (affinity > 1) {
    OnAffinityReduced(x, host, affinity - 1);
    return true;
  }
  return RequestDrop(x, host);
}

int Redirector::PruneHost(NodeId host) {
  int pruned = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    EntryHead& e = table_[i];
    if (!Registered(e)) continue;
    const auto x = static_cast<ObjectId>(i);
    const std::size_t pos = FindReplica(x, host);
    if (pos == kNpos) continue;
    EraseReplica(x, pos);
    if (listener_ != nullptr) listener_->OnReplicaRemoved(x, host);
    ResetCounts(e);
    ++pruned;
  }
  return pruned;
}

void Redirector::RestoreReplica(ObjectId x, NodeId host, int affinity) {
  RADAR_CHECK_GE(affinity, 1);
  EntryHead& e = HeadOf(x);
  RADAR_CHECK_MSG(Registered(e), "restore notice for unknown object");
  RADAR_CHECK_MSG(FindReplica(x, host) == kNpos,
                  "restore notice for a replica already recorded");
  InsertReplica(x, host, 1, affinity);
  if (listener_ != nullptr) listener_->OnReplicaAdded(x, host);
  ResetCounts(e);
}

void Redirector::set_min_replicas(int k) {
  RADAR_CHECK_GE(k, 1);
  min_replicas_ = k;
}

std::vector<NodeId> Redirector::ReplicaHosts(ObjectId x) const {
  const EntryHead& e = HeadOf(x);
  const std::uint32_t n = Count(e);
  std::vector<NodeId> hosts;
  hosts.reserve(n);
  if (n == 1) {
    hosts.push_back(e.host0);
  } else if (n >= 2) {
    const SpillSet& s = SpillOf(e);
    hosts.assign(s.hosts.begin(), s.hosts.end());
  }
  return hosts;
}

int Redirector::ReplicaCount(ObjectId x) const {
  return static_cast<int>(Count(HeadOf(x)));
}

int Redirector::TotalAffinity(ObjectId x) const {
  const EntryHead& e = HeadOf(x);
  const std::uint32_t n = Count(e);
  if (n == 0) return 0;
  if (n == 1) return aff0_[static_cast<std::size_t>(x)];
  const SpillSet& s = SpillOf(e);
  int total = 0;
  for (std::size_t i = 0; i < n; ++i) total += s.affs[i];
  return total;
}

int Redirector::AffinityOf(ObjectId x, NodeId host) const {
  const std::size_t pos = FindReplica(x, host);
  if (pos == kNpos) return 0;
  const EntryHead& e = HeadOf(x);
  return Count(e) == 1 ? aff0_[static_cast<std::size_t>(x)]
                       : SpillOf(e).affs[pos];
}

std::int64_t Redirector::RequestCountOf(ObjectId x, NodeId host) const {
  const std::size_t pos = FindReplica(x, host);
  if (pos == kNpos) return 0;
  const EntryHead& e = HeadOf(x);
  return Count(e) == 1 ? e.rcnt_or_spill : SpillOf(e).rcnts[pos];
}

std::vector<ObjectId> Redirector::Objects() const {
  std::vector<ObjectId> out;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    if (Registered(table_[i])) out.push_back(static_cast<ObjectId>(i));
  }
  return out;
}

std::pair<std::int64_t, std::int64_t> Redirector::ReplicaAndObjectTotals()
    const {
  // One linear pass over the 16-byte heads; the census never touches the
  // spill pool.
  std::int64_t replicas = 0;
  std::int64_t objects = 0;
  for (const EntryHead& e : table_) {
    if (!Registered(e)) continue;
    replicas += static_cast<std::int64_t>(Count(e));
    ++objects;
  }
  return {replicas, objects};
}

RedirectorGroup::RedirectorGroup(const DistanceOracle& distance,
                                 double distribution_constant,
                                 std::vector<NodeId> homes) {
  RADAR_CHECK(!homes.empty());
  redirectors_.reserve(homes.size());
  for (const NodeId home : homes) {
    redirectors_.emplace_back(distance, distribution_constant, home);
  }
}

Redirector& RedirectorGroup::For(ObjectId x) {
  RADAR_CHECK_GE(x, 0);
  // The paper's default deployment runs one redirector; skip the partition
  // arithmetic (a hardware divide) entirely in that case.
  if (redirectors_.size() == 1) return redirectors_.front();
  // Fibonacci-hash the object id for an even partition even when ids are
  // assigned contiguously.
  const auto h = static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  return redirectors_[static_cast<std::size_t>(
      h % static_cast<std::uint64_t>(redirectors_.size()))];
}

const Redirector& RedirectorGroup::For(ObjectId x) const {
  return const_cast<RedirectorGroup*>(this)->For(x);
}

Redirector& RedirectorGroup::At(int index) {
  RADAR_CHECK_GE(index, 0);
  RADAR_CHECK_LT(index, size());
  return redirectors_[static_cast<std::size_t>(index)];
}

std::pair<std::int64_t, std::int64_t> RedirectorGroup::TotalReplicasAndObjects()
    const {
  // One pass over each redirector's table: no materialized Objects()
  // vector, no per-object table lookups.
  std::int64_t replicas = 0;
  std::int64_t objects = 0;
  for (const auto& r : redirectors_) {
    const auto [rep, obj] = r.ReplicaAndObjectTotals();
    replicas += rep;
    objects += obj;
  }
  return {replicas, objects};
}

}  // namespace radar::core
