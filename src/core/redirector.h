// The redirector: request distribution and replica-set registry (Fig. 2).
//
// One redirector is responsible for each object (the URL namespace is
// hash-partitioned across redirectors; see RedirectorGroup). For every
// replica it tracks a request count rcnt and an affinity aff_r, and
// assigns each incoming request either to the replica closest to the
// requesting gateway or to the replica with the smallest *unit* request
// count (rcnt/aff):
//
//   choose the least-counted replica q  iff  unitcnt(closest)/C > unitcnt(q)
//
// with C = 2 in the paper. (The published Figure 2 has its branches
// garbled; this is the semantics its prose and worked example define —
// see DESIGN.md.) All request counts reset to 1 whenever the replica set
// changes, so a fresh replica is not flooded while it "catches up".
//
// The redirector also arbitrates replica deletions: it refuses to let the
// last replica of an object be dropped, and it removes a replica from its
// table *before* granting the drop while learning of creations *after*
// they happen — preserving the invariant that its recorded replica set is
// always a subset of the replicas that physically exist.
//
// Storage layout: the table is a dense-by-object-id vector of 16-byte
// heads. The common case — one replica — lives entirely in the head
// (host + request count), with the affinity in a parallel array the
// request path never reads. Multi-replica sets (rare: the mean replica
// count stays near 1) spill into a pooled structure-of-arrays set —
// hosts, rcnts, affs in separate contiguous vectors, kept sorted by host
// — so the Fig. 2 loop streams plain arrays. Spill sets are recycled
// through a free list: replica churn allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/distance.h"

namespace radar::core {

class Redirector {
 public:
  /// Observes replica-set changes (e.g. to keep the Sec. 5 consistency
  /// layer's per-replica state in step with placement decisions).
  class ChangeListener {
   public:
    virtual ~ChangeListener() = default;
    /// A new physical replica of x appeared on host (not called for pure
    /// affinity increments).
    virtual void OnReplicaAdded(ObjectId x, NodeId host) = 0;
    /// The replica of x on host was removed (drop granted).
    virtual void OnReplicaRemoved(ObjectId x, NodeId host) = 0;
  };

  /// `distance` must outlive the redirector. `distribution_constant` is
  /// the C above (> 0). `home_node` is where this redirector runs (used by
  /// the driver for control-message latency; the algorithm itself does not
  /// depend on it).
  Redirector(const DistanceOracle& distance, double distribution_constant,
             NodeId home_node = kInvalidNode);

  NodeId home_node() const { return home_node_; }

  /// Registers the initial (sole) replica of an object.
  void RegisterObject(ObjectId x, NodeId initial_host);

  bool KnowsObject(ObjectId x) const;

  /// Fig. 2: picks the servicing replica for a request entering at
  /// `gateway` and increments its request count. Requires the object to
  /// be registered. Returns kInvalidNode when every replica is gone
  /// (faults pruned the whole live set) — the request has nowhere to go.
  NodeId ChooseReplica(ObjectId x, NodeId gateway);

  /// ChooseReplica with the gateway's distance row already resolved
  /// (`row` = distance.DistanceRow(gateway), possibly nullptr). Batched
  /// dispatch resolves the row once per gateway batch instead of once per
  /// request; the choice is identical either way.
  NodeId ChooseReplica(ObjectId x, NodeId gateway, const std::int32_t* row);

  /// Hints x's entry head into cache. The batched dispatcher knows the
  /// next arrival's object one event early and prefetches its 16-byte
  /// head, hiding the table's only data-dependent load. A miss on an
  /// unknown id is harmless (bounds-checked, no growth).
  void Prefetch(ObjectId x) const {
    if (static_cast<std::size_t>(x) < table_.size()) {
      __builtin_prefetch(&table_[static_cast<std::size_t>(x)], 0, 2);
    }
  }

  /// Notification that `host` created a new replica (affinity 1) or, if it
  /// already held one, incremented its affinity. Resets request counts.
  void OnReplicaCreated(ObjectId x, NodeId host);

  /// Notification that `host` reduced its replica's affinity to
  /// `new_affinity` (>= 1). Resets request counts.
  void OnAffinityReduced(ObjectId x, NodeId host, int new_affinity);

  /// A host asks to drop its (affinity-1) replica. Grants unless doing so
  /// would leave fewer than min_replicas() copies (1 by default — the
  /// paper's never-delete-the-last-replica rule); on grant the replica is
  /// removed from the table immediately, keeping the recorded set a subset
  /// of physical replicas.
  bool RequestDrop(ObjectId x, NodeId host);

  /// Resolves a placement round's ReduceAffinity intent from `host`, whose
  /// replica holds `affinity` units: above 1, lowers the record to
  /// affinity - 1 (always granted); at 1, arbitrates the drop
  /// (RequestDrop). Returns whether the unit was shed.
  bool ReduceAffinity(ObjectId x, NodeId host, int affinity);

  // -- Fault reaction (src/fault drives these; no-ops in a perfect world) --

  /// Removes every replica recorded on `host` (it crashed). Fires
  /// OnReplicaRemoved per pruned replica and resets request counts of the
  /// affected objects. Returns the number of replicas pruned. Objects
  /// whose whole replica set is pruned stay registered with zero live
  /// replicas until a recovery or repair re-adds one.
  int PruneHost(NodeId host);

  /// Re-registers a replica of x on `host` (the host recovered with its
  /// disk intact, or a floor repair copied the object there). The replica
  /// keeps its pre-crash affinity; request counts reset as for any other
  /// replica-set change. The replica must not already be recorded.
  void RestoreReplica(ObjectId x, NodeId host, int affinity);

  /// Raises the drop-refusal threshold from the paper's 1 to `k` (the
  /// replica floor): RequestDrop refuses whenever it would leave fewer
  /// than k copies.
  void set_min_replicas(int k);
  int min_replicas() const { return min_replicas_; }

  // -- Introspection (metrics, tests) --

  /// Hosts currently holding a replica, ascending by node id.
  std::vector<NodeId> ReplicaHosts(ObjectId x) const;

  /// Number of distinct replica hosts.
  int ReplicaCount(ObjectId x) const;

  /// Sum of affinities across replicas.
  int TotalAffinity(ObjectId x) const;

  int AffinityOf(ObjectId x, NodeId host) const;
  std::int64_t RequestCountOf(ObjectId x, NodeId host) const;

  /// Objects registered with this redirector.
  std::vector<ObjectId> Objects() const;

  /// {sum of replica counts, number of registered objects} in one pass
  /// over the table — no per-object lookups, no allocation.
  std::pair<std::int64_t, std::int64_t> ReplicaAndObjectTotals() const;

  /// Registers a change listener (nullptr to clear); not owned.
  void set_change_listener(ChangeListener* listener) {
    listener_ = listener;
  }

  /// Total ChooseReplica calls served (metrics).
  std::int64_t requests_distributed() const { return requests_distributed_; }

  /// Number of replica-set changes processed (metrics).
  std::int64_t replica_set_changes() const { return replica_set_changes_; }

 private:
  /// 16-byte per-object head. `count_reg` packs the replica count (low 31
  /// bits) with the registered flag (high bit — set once by
  /// RegisterObject; faults can empty a registered entry, so emptiness no
  /// longer implies "unknown object"). For a sole replica the head is the
  /// whole entry: `host0` and its request count in `rcnt_or_spill`; the
  /// affinity lives in the parallel aff0_ array, off the request path.
  /// With two or more replicas `rcnt_or_spill` indexes spill_pool_.
  struct EntryHead {
    NodeId host0 = kInvalidNode;
    std::uint32_t count_reg = 0;
    std::int64_t rcnt_or_spill = 0;
  };
  static constexpr std::uint32_t kRegisteredBit = 0x80000000u;
  static constexpr std::uint32_t kCountMask = 0x7fffffffu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Replica set of one object with >= 2 replicas, kept sorted by host id
  /// in structure-of-arrays form so the Fig. 2 loop streams contiguous
  /// vectors. Pooled and recycled (vectors keep their capacity on the
  /// free list).
  struct SpillSet {
    std::vector<NodeId> hosts;
    std::vector<std::int64_t> rcnts;
    std::vector<int> affs;
  };

  static std::uint32_t Count(const EntryHead& e) {
    return e.count_reg & kCountMask;
  }
  static bool Registered(const EntryHead& e) {
    return (e.count_reg & kRegisteredBit) != 0;
  }
  static void SetCount(EntryHead& e, std::uint32_t count) {
    e.count_reg = (e.count_reg & kRegisteredBit) | count;
  }

  EntryHead& HeadOf(ObjectId x);
  const EntryHead& HeadOf(ObjectId x) const;
  SpillSet& SpillOf(const EntryHead& e) {
    return spill_pool_[static_cast<std::size_t>(e.rcnt_or_spill)];
  }
  const SpillSet& SpillOf(const EntryHead& e) const {
    return spill_pool_[static_cast<std::size_t>(e.rcnt_or_spill)];
  }

  /// Fig. 2 over a spilled (>= 2 replica) set.
  NodeId ChooseFromSpill(EntryHead& e, NodeId gateway,
                         const std::int32_t* row);

  /// Index of `host` in x's replica set (0 for the inline replica), or
  /// kNpos when absent.
  std::size_t FindReplica(ObjectId x, NodeId host) const;
  /// Inserts a replica, keeping the set sorted by host id; moves a sole
  /// inline replica into a pooled spill set when crossing 1 -> 2.
  void InsertReplica(ObjectId x, NodeId host, std::int64_t rcnt, int aff);
  /// Erases the replica at `pos`; a set shrinking 2 -> 1 moves the
  /// survivor back inline and recycles the spill set.
  void EraseReplica(ObjectId x, std::size_t pos);
  void ResetCounts(EntryHead& e);

  std::uint32_t AcquireSpill();
  void ReleaseSpill(std::int64_t slot);

  const DistanceOracle& distance_;
  double distribution_constant_;
  NodeId home_node_;
  int min_replicas_ = 1;
  ChangeListener* listener_ = nullptr;
  // Dense by object id; entries with no replicas are unregistered objects
  // (or registered objects whose live set faults emptied).
  std::vector<EntryHead> table_;
  /// Parallel to table_: the sole replica's affinity while count <= 1.
  std::vector<int> aff0_;
  std::vector<SpillSet> spill_pool_;
  std::vector<std::uint32_t> spill_free_;
  std::int64_t requests_distributed_ = 0;
  std::int64_t replica_set_changes_ = 0;
};

/// Hash-partitions the object namespace over k redirectors (Sec. 2: "the
/// load is divided among multiple redirectors by hash-partitioning the URL
/// namespace"). The paper's simulation uses k = 1 placed at the most
/// central node.
class RedirectorGroup {
 public:
  /// `homes` gives the node each redirector runs on; size >= 1.
  RedirectorGroup(const DistanceOracle& distance, double distribution_constant,
                  std::vector<NodeId> homes);

  int size() const { return static_cast<int>(redirectors_.size()); }

  /// The redirector responsible for object x (stable hash partition).
  Redirector& For(ObjectId x);
  const Redirector& For(ObjectId x) const;

  Redirector& At(int index);

  /// Aggregate replica statistics across all redirectors: {replica count
  /// sum, object count}.
  std::pair<std::int64_t, std::int64_t> TotalReplicasAndObjects() const;

 private:
  std::vector<Redirector> redirectors_;
};

}  // namespace radar::core
