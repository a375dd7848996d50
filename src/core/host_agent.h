// Per-host protocol state and the replica placement algorithm (Figs. 3-5).
//
// Each hosting server runs one HostAgent. The agent
//   - tracks, per hosted object, how often every platform node appeared on
//     the preference paths of serviced requests (the access counts of
//     Sec. 4.1),
//   - measures its load as the rate of serviced requests per measurement
//     interval (Sec. 2.1 / 6.1),
//   - maintains the upper/lower load estimates that Theorems 1-4 make
//     sound, so it can accept or shed many objects without waiting for
//     fresh measurements,
//   - periodically runs a placement round: Fig. 3's deletion,
//     geo-migration and geo-replication, then Fig. 5's offload when stuck
//     above the high watermark, and
//   - answers CreateObj requests from peers (Fig. 4).
//
// The agent is autonomous by construction: it never learns which other
// replicas of its objects exist; everything it decides follows from its own
// counters plus the verdicts on the intents its round asks of the platform
// (a candidate's CreateObj acceptance, the redirector's affinity
// reduction or drop). The round is a coroutine (PlacementRound), so the
// simulator resolves those intents inline and the daemons over the wire
// with the same code.
//
// Storage layout: records live in a SlabMap keyed by object id, and the
// per-interval measurement fields (serviced counts, measured loads) live
// in parallel flat arrays keyed by the record's slab handle. The
// cnt(p, x) access counts are sparse: one (node, count) vector per slot,
// holding one entry for each node that appeared on a preference path
// this epoch, in first-appearance order — a dense slots x num_nodes
// matrix would be 4 GB at 10^5 objects on a 10k-node topology. A row's
// size is the union of its paths, so a warm object costs a few entries,
// not one per request. Every path starts at this host, so its own entry
// is always entry 0 and a record bumps it without a search. Each later
// path node is searched for in one forward pass over entries 1.. that
// starts after the previous path node's entry, because a path's nodes
// first appear in path order, and wraps once; the pass never reaches the
// entries its own path appended, so a fresh row costs one append per
// path node. Rows are cleared (capacity retained) on epoch reset and
// slot recycling, so steady-state bookkeeping allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/slab_map.h"
#include "common/types.h"
#include "core/params.h"
#include "core/protocol.h"

namespace radar::core {

class HostAgent {
 public:
  /// `params` must outlive the agent.
  HostAgent(NodeId self, std::int32_t num_nodes, const ProtocolParams* params);

  NodeId self() const { return self_; }

  // ---- Heterogeneity (Sec. 2: "weights corresponding to relative power
  // of hosts") and the storage component of the vector load metric
  // (Sec. 2.1) ----

  /// Relative capacity weight (default 1.0). All watermark comparisons
  /// use the *normalized* load (load / weight), so a host with weight 2
  /// accepts twice the absolute load before refusing or offloading.
  void set_weight(double weight);
  double weight() const { return weight_; }

  /// Storage capacity in objects (0 = unlimited). A full host refuses
  /// CreateObj requests that would create a new physical copy (affinity
  /// increments occupy no extra storage).
  void set_storage_capacity(std::int64_t max_objects);
  std::int64_t storage_capacity() const { return storage_capacity_; }
  bool StorageFull() const;

  // ---- Replica state ----

  /// Installs the initial copy of an object (system bootstrap; does not
  /// count as an acquisition for load-estimate purposes). `affinity` lets
  /// a real-mode host rebuild a multi-affinity replica from its WAL.
  void AddInitialReplica(ObjectId x, int affinity = 1);

  bool HasObject(ObjectId x) const { return records_.Contains(x); }
  int Affinity(ObjectId x) const;
  /// Hosted object ids in ascending order.
  std::vector<ObjectId> Objects() const;
  std::size_t NumObjects() const { return records_.size(); }

  // ---- Request servicing ----

  /// Slab slot of a hosted object's record. A slot holds its object until
  /// the object is dropped; then it may hold another object, or none.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;

  /// Slot of x's record, or kNoSlot when x is not hosted. Also prefetches
  /// the slot's count-row header and serviced counter: a request looks its
  /// record up on arrival and records through the slot on completion.
  Slot ServiceSlot(ObjectId x) const;

  /// Records one serviced request for x whose response travels along
  /// `preference_path` (routers from this host to the client's gateway,
  /// inclusive; element 0 must be this host, and no node appears twice).
  /// Increments the access count of every node on the path (Sec. 4.1)
  /// and the load counters.
  void RecordServiced(ObjectId x, const std::vector<NodeId>& preference_path);

  /// RecordServiced when x is hosted; otherwise records the untracked
  /// service and returns false. `slot` is what ServiceSlot(x) returned
  /// earlier, or kNoSlot. It is used while it still holds x; otherwise x
  /// is looked up again, so a replica dropped, re-added or moved to
  /// another slot since then counts as it is now.
  bool RecordServicedIfHosted(ObjectId x, Slot slot,
                              const std::vector<NodeId>& preference_path);
  /// The same with a fresh lookup of x.
  bool RecordServicedIfHosted(ObjectId x,
                              const std::vector<NodeId>& preference_path) {
    return RecordServicedIfHosted(x, kNoSlot, preference_path);
  }

  /// Load bookkeeping for a serviced request whose object is no longer
  /// hosted (a request that was in flight when the replica was dropped).
  void RecordServicedUntracked();

  // ---- Load measurement (Sec. 2.1) ----

  /// Closes the current measurement interval at `now`: recomputes the
  /// measured load (requests/sec) and per-object loads, and reverts the
  /// load estimates to measurements once an interval free of acquisitions
  /// (resp. sheddings) has completed.
  void OnMeasurementTick(SimTime now);

  /// Load over the last completed measurement interval (requests/sec).
  double measured_load() const { return measured_load_; }

  /// Upper-limit estimate used when deciding whether to accept objects:
  /// measured load plus 4 * unit-load (Theorems 2/4) for every object
  /// accepted that the measurement does not yet reflect. A bound is aged
  /// out once a full measurement interval has covered the acquisition —
  /// the paper's Sec. 2.1 rule, kept per-acquisition so that a steady
  /// stream of relocations cannot inflate the estimate without bound
  /// (footnote 2).
  double AdmissionLoad() const {
    return measured_load_ + upper_adjust_cur_ + upper_adjust_prev_;
  }

  /// Lower-limit estimate used when deciding whether to keep offloading:
  /// measured load minus the Theorem 1/3 decrease bounds of everything
  /// shed that the measurement does not yet reflect (same aging).
  double OffloadLoad() const {
    return measured_load_ - lower_adjust_cur_ - lower_adjust_prev_;
  }

  /// load(x_s): requests/sec serviced for x over the last interval.
  double ObjectLoad(ObjectId x) const;

  /// load(x_s) / aff(x_s), the value carried in CreateObj messages.
  double UnitLoad(ObjectId x) const;

  bool offloading() const { return offloading_; }

  // ---- Protocol steps ----

  /// Fig. 4: handles an incoming CreateObj. On acceptance the replica (or
  /// affinity unit) exists locally when this returns; the caller is
  /// responsible for notifying the redirector.
  CreateObjResponse HandleCreateObj(CreateObjMethod method, ObjectId x,
                                    double unit_load, SimTime now);

  /// Fig. 3 (+ Fig. 5 when offloading): starts one placement round at
  /// time `now`. The round reads the platform through `ctx` (which must
  /// outlive it) and suspends on each PlacementIntent; the caller resumes
  /// it with the verdict. The round charges the Theorem 1/3 bounds of its
  /// relocations itself and resets the per-object access counts when it
  /// completes. Run one round at a time: requests and CreateObjs may
  /// arrive while a round is suspended, another round may not start.
  PlacementRound Placement(PlacementContext& ctx, SimTime now);

  // ---- Fault reaction (src/fault drives these) ----

  /// The host's process just restarted after a crash at `now`. Its disk —
  /// the replica set and affinities — survived, but every in-memory
  /// counter did not: measured loads, access counts, interval totals, and
  /// the Theorem 1-4 estimate adjustments all restart from zero, exactly
  /// as a freshly booted server would.
  void ResetAfterCrash(SimTime now);

  /// Installs a replica pushed by the replica-floor repairer. Unlike
  /// HandleCreateObj this bypasses the Fig. 4 watermark admission test —
  /// availability repair must not be refusable by a busy host — but still
  /// charges the Theorem 2/4 upper bound so the load estimate stays sound.
  /// Requires the object not hosted and storage not full.
  void AcceptRepairReplica(ObjectId x, double unit_load, SimTime now);

  // ---- Introspection (tests, metrics) ----

  /// Access count cnt(p, x) accumulated since the last placement run.
  std::uint32_t AccessCount(ObjectId x, NodeId p) const;

  /// Unit access rate (requests/sec per affinity unit) x would be judged
  /// by if placement ran at `now`.
  double UnitAccessRate(ObjectId x, SimTime now) const;

 private:
  /// Slab-resident part of a record: the fields placement reads per
  /// object. The per-interval measurement fields live in parallel arrays
  /// (serviced_, load_, counts_) keyed by the record's slab handle, so
  /// interval sweeps stream flat arrays.
  struct ReplicaRecord {
    int aff = 1;
    /// When this replica appeared on the host (bounds its epoch length).
    SimTime acquired_at = 0;
  };
  // Hash-indexed slab: a host's keys are a stride-n sample of the whole
  // object-id space (object i starts on node i mod n), so the default
  // dense index would cost num_objects entries on every one of n agents —
  // an n x objects blow-up at Internet scale. Chunks of 32 slots match a
  // host's typical working set (a few dozen replicas, not hundreds).
  using Records = SlabMap<ReplicaRecord, 5, HashSlabIndex>;
  using Handle = Records::Handle;
  static_assert(Records::kNoHandle == kNoSlot);

  /// One sparse access-count entry: node `node` appeared on `count`
  /// preference paths this epoch. A row holds one entry per node.
  struct CountEntry {
    NodeId node;
    std::uint32_t count;
  };
  using CountRow = std::vector<CountEntry>;

  /// Handle of x's record; checks that x is hosted.
  Handle HandleOf(ObjectId x) const {
    const Handle h = records_.HandleOf(x);
    RADAR_CHECK_MSG(h != Records::kNoHandle, "object not hosted");
    return h;
  }

  /// cnt(p, x) row of the record in slot `h` (first-appearance order).
  CountRow& CountsRow(Handle h) { return counts_[h]; }
  const CountRow& CountsRow(Handle h) const { return counts_[h]; }

  /// cnt(p, x) for one node: its entry's count, 0 when absent.
  static std::uint32_t CountFor(const CountRow& row, NodeId p);
  /// Increments cnt(p, x) for a path node p other than self, appending p
  /// when entries 1 to `known` - 1 have none for it, and returns the
  /// position after p's entry. The search starts at `from` (>= 1) and
  /// wraps once to entry 1: passing the previous path node's result finds
  /// the next path node first. `known` is the row's size once self was
  /// counted; the entries past it are the current path's own nodes, which
  /// a path names once each.
  static std::size_t BumpCount(CountRow& row, NodeId p, std::size_t from,
                               std::size_t known);

  /// Creates x's record (and grows the parallel arrays to match the slab).
  Handle InsertRecord(ObjectId x);
  /// Drops x's record, zeroing its parallel-array state for slot reuse.
  void EraseRecord(ObjectId x);

  void RecordServicedAt(Handle h,
                        const std::vector<NodeId>& preference_path);

  /// Fig. 3's ReduceAffinity(x) as an awaitable intent. On the
  /// redirector's grant the local replica sheds one affinity unit (the
  /// record goes at 0), and `migration_bound` — the Theorem 3 decrease
  /// bound when this is a migration's source half, else 0 — is charged
  /// whatever the verdict.
  struct ReduceStep : PlacementRound::Ask {
    HostAgent* agent;
    double migration_bound;

    bool await_resume() const;
  };

  /// Awaitable Fig. 4 CreateObj(method, x, unit_load) to `to`.
  static PlacementRound::Ask CreateObj(CreateObjMethod method, NodeId to,
                                       ObjectId x, double unit_load) {
    return {PlacementIntent{PlacementIntent::Kind::kCreateObj, x, method, to,
                            unit_load, 0},
            nullptr};
  }
  /// The migrate step Fig. 3's geo-migration and Fig. 5's load-migration
  /// share, once the recipient accepted CreateObj(MIGRATE): shed the
  /// local affinity unit and charge the Theorem 3 bound for the replica's
  /// `object_load` at `aff_before` units. A refused drop (replica floor,
  /// or the redirector went away) leaves both copies live with the bound
  /// still charged — a relocation duplicates an object, never loses one.
  ReduceStep MigrateAway(ObjectId x, double object_load, int aff_before);
  ReduceStep ReduceAffinity(ObjectId x, double migration_bound = 0.0);

  /// Hosted objects in decreasing order of their highest "foreign"
  /// access fraction (Fig. 5's examination order).
  struct Ranked {
    double foreign_fraction;
    ObjectId x;
  };
  std::vector<Ranked> RankForOffload();

  /// Seconds of epoch this replica has observed at `now`.
  double EpochSeconds(const ReplicaRecord& rec, SimTime now) const;

  /// Writes to `out` the nodes other than self whose access count in
  /// `counts` exceeds `min_count`, in decreasing order of distance from
  /// self (ties: lower id first). Placement calls it O(objects) times per
  /// round, so it reuses `out`'s capacity.
  void CandidatesByFarthest(const CountRow& counts, double min_count,
                            const PlacementContext& ctx,
                            std::vector<NodeId>* out);

  NodeId self_;
  std::int32_t num_nodes_;
  const ProtocolParams* params_;

  /// Hosted records, keyed by object id. Slots never relocate, so the
  /// parallel arrays below are keyed by slab handle.
  Records records_;
  /// Requests serviced this measurement interval, per slot.
  std::vector<std::uint32_t> serviced_;
  /// load(x_s) from the last completed interval (requests/sec), per slot.
  std::vector<double> load_;
  /// Sparse cnt(p, x) rows, one per slot, one entry per node. A cold
  /// object's row is empty; clear() keeps the capacity for slot reuse.
  std::vector<CountRow> counts_;

  // Scratch for CandidatesByFarthest (reused across calls; see above).
  struct Candidate {
    std::int32_t dist;
    NodeId p;
  };
  std::vector<Candidate> candidate_scratch_;
  /// Capacity for a round's candidate lists. The round moves it into its
  /// frame at the start and hands it back at the end, so it owns what it
  /// iterates across suspensions and steady-state rounds reuse it.
  std::vector<NodeId> candidate_out_;

  // Load measurement state. Estimate adjustments live in a two-slot
  // window: `cur` collects bounds for relocations in the running interval,
  // `prev` holds the previous interval's (already partially measured)
  // bounds; a tick shifts cur -> prev and drops the old prev, whose
  // effects the new measurement now fully reflects.
  SimTime interval_start_ = 0;
  std::uint32_t serviced_interval_total_ = 0;
  double measured_load_ = 0.0;
  double upper_adjust_cur_ = 0.0;
  double upper_adjust_prev_ = 0.0;
  double lower_adjust_cur_ = 0.0;
  double lower_adjust_prev_ = 0.0;

  // Placement state.
  SimTime epoch_start_ = 0;
  bool offloading_ = false;

  // Heterogeneity / storage.
  double weight_ = 1.0;
  std::int64_t storage_capacity_ = 0;
};

}  // namespace radar::core
