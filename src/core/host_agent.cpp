#include "core/host_agent.h"

#include <algorithm>

#include "common/check.h"
#include "core/bounds.h"

namespace radar::core {

HostAgent::HostAgent(NodeId self, std::int32_t num_nodes,
                     const ProtocolParams* params)
    : self_(self), num_nodes_(num_nodes), params_(params) {
  RADAR_CHECK_GE(self, 0);
  RADAR_CHECK_LT(self, num_nodes);
  RADAR_CHECK_NE(params, nullptr);
  params->CheckStructure();
}

HostAgent::Handle HostAgent::InsertRecord(ObjectId x) {
  const Handle h = records_.Insert(x);
  // Keep the parallel arrays in step with the slab's slot space. A
  // recycled slot was cleared by EraseRecord (its row keeps its
  // capacity); freshly carved slots get empty rows here. Steady-state
  // churn therefore never allocates.
  const std::size_t cap = records_.slot_capacity();
  if (serviced_.size() < cap) {
    serviced_.resize(cap, 0);
    load_.resize(cap, 0.0);
    counts_.resize(cap);
  }
  return h;
}

void HostAgent::EraseRecord(ObjectId x) {
  const Handle h = HandleOf(x);
  serviced_[h] = 0;
  load_[h] = 0.0;
  counts_[h].clear();
  records_.Erase(x);
}

std::uint32_t HostAgent::CountFor(const CountRow& row, NodeId p) {
  for (const CountEntry& e : row) {
    if (e.node == p) return e.count;
  }
  return 0;
}

std::size_t HostAgent::BumpCount(CountRow& row, NodeId p, std::size_t from,
                                 std::size_t known) {
  std::size_t i = from < known ? from : 1;
  for (std::size_t left = known - 1; left > 0; --left) {
    if (row[i].node == p) {
      ++row[i].count;
      return i + 1;
    }
    if (++i == known) i = 1;
  }
  row.push_back(CountEntry{p, 1});
  return row.size();
}

void HostAgent::AddInitialReplica(ObjectId x, int affinity) {
  RADAR_CHECK_MSG(!HasObject(x), "initial replica already present");
  RADAR_CHECK_GE(affinity, 1);
  records_.At(InsertRecord(x)).aff = affinity;
}

int HostAgent::Affinity(ObjectId x) const {
  const ReplicaRecord* rec = records_.Find(x);
  return rec != nullptr ? rec->aff : 0;
}

std::vector<ObjectId> HostAgent::Objects() const {
  // The hash index cannot be walked in key order: ForEachKeyAscending
  // sorts the live slots by their stored keys (O(k log k) for k hosted
  // objects, into a reused scratch buffer).
  std::vector<ObjectId> out;
  out.reserve(records_.size());
  records_.ForEachKeyAscending([&out](std::int64_t key, Handle) {
    out.push_back(static_cast<ObjectId>(key));
  });
  return out;
}

HostAgent::Slot HostAgent::ServiceSlot(ObjectId x) const {
  const Handle h = records_.HandleOf(x);
  if (h != Records::kNoHandle) {
    __builtin_prefetch(&counts_[h]);
    __builtin_prefetch(&serviced_[h], 1);
  }
  return h;
}

void HostAgent::RecordServicedAt(Handle h,
                                 const std::vector<NodeId>& preference_path) {
  RADAR_CHECK(!preference_path.empty());
  RADAR_CHECK_MSG(preference_path.front() == self_,
                  "preference path must start at the servicing host");
  // Every path starts at self, so the first one a row sees puts self in
  // entry 0, where every later path bumps it without a search.
  CountRow& row = CountsRow(h);
  if (row.empty()) {
    row.push_back(CountEntry{self_, 1});
  } else {
    ++row.front().count;
  }
  const std::size_t known = row.size();
  std::size_t next = 1;
  for (std::size_t i = 1; i < preference_path.size(); ++i) {
    next = BumpCount(row, preference_path[i], next, known);
  }
  ++serviced_[h];
  ++serviced_interval_total_;
}

void HostAgent::RecordServiced(ObjectId x,
                               const std::vector<NodeId>& preference_path) {
  RecordServicedAt(HandleOf(x), preference_path);
}

bool HostAgent::RecordServicedIfHosted(
    ObjectId x, Slot slot, const std::vector<NodeId>& preference_path) {
  // A freed slot's key reads -1, which no object id equals.
  if (slot == kNoSlot || records_.KeyAt(slot) != x) {
    slot = records_.HandleOf(x);
  }
  if (slot == kNoSlot) {
    RecordServicedUntracked();
    return false;
  }
  RecordServicedAt(slot, preference_path);
  return true;
}

void HostAgent::RecordServicedUntracked() { ++serviced_interval_total_; }

void HostAgent::OnMeasurementTick(SimTime now) {
  const double seconds = SimToSeconds(now - interval_start_);
  if (seconds <= 0.0) return;
  measured_load_ = static_cast<double>(serviced_interval_total_) / seconds;
  serviced_interval_total_ = 0;
  // Per-record updates are independent, so the sweep streams the two flat
  // per-slot arrays — no record is dereferenced at all. Free slots hold
  // zeroes (EraseRecord's contract) and are skipped by the same test that
  // skips cold objects: records that saw no requests and already carry a
  // zero load would be rewritten with the same values, and skipping them
  // keeps the (mostly cold, Zipf-tailed) population's cache lines clean.
  const std::size_t cap = records_.slot_capacity();
  for (std::size_t s = 0; s < cap; ++s) {
    if (serviced_[s] == 0 && load_[s] == 0.0) continue;
    load_[s] = static_cast<double>(serviced_[s]) / seconds;
    serviced_[s] = 0;
  }
  // Sec. 2.1: an estimate stands in for measurements only until an
  // interval that started after the relocation completes — the new
  // measurement then reflects it. Shift the adjustment window.
  upper_adjust_prev_ = upper_adjust_cur_;
  upper_adjust_cur_ = 0.0;
  lower_adjust_prev_ = lower_adjust_cur_;
  lower_adjust_cur_ = 0.0;
  interval_start_ = now;
}

double HostAgent::ObjectLoad(ObjectId x) const {
  const Handle h = records_.HandleOf(x);
  return h != Records::kNoHandle ? load_[h] : 0.0;
}

double HostAgent::UnitLoad(ObjectId x) const {
  const Handle h = records_.HandleOf(x);
  if (h == Records::kNoHandle) return 0.0;
  return load_[h] / static_cast<double>(records_.At(h).aff);
}

CreateObjResponse HostAgent::HandleCreateObj(CreateObjMethod method,
                                             ObjectId x, double unit_load,
                                             SimTime now) {
  RADAR_CHECK_GE(unit_load, 0.0);
  // Fig. 4: any acceptance requires load below the low watermark; a
  // migration additionally must not push the upper-bound estimate past the
  // high watermark (replications may — overloading a recipient temporarily
  // can be necessary to bootstrap replication, Sec. 4.2.1). Loads are
  // normalized by the host's relative-power weight (Sec. 2).
  if (AdmissionLoad() / weight_ > params_->low_watermark) return {};
  if (method == CreateObjMethod::kMigrate &&
      (AdmissionLoad() + RecipientIncreaseBoundFromUnitLoad(unit_load)) /
              weight_ >
          params_->high_watermark) {
    return {};
  }
  const Handle existing = records_.HandleOf(x);
  // Storage component of the vector load metric (Sec. 2.1): a full host
  // cannot take a new physical copy; raising the affinity of a replica it
  // already stores is fine.
  if (existing == Records::kNoHandle && StorageFull()) return {};

  CreateObjResponse resp;
  resp.accepted = true;
  if (existing == Records::kNoHandle) {
    const Handle h = InsertRecord(x);
    records_.At(h).acquired_at = now;
    // Best available per-object load estimate until a full measurement
    // interval passes: the advertised unit load of the source replica.
    load_[h] = unit_load;
    resp.created_new_copy = true;
  } else {
    ++records_.At(existing).aff;
  }
  upper_adjust_cur_ += RecipientIncreaseBoundFromUnitLoad(unit_load);
  return resp;
}

void HostAgent::ResetAfterCrash(SimTime now) {
  serviced_interval_total_ = 0;
  measured_load_ = 0.0;
  upper_adjust_cur_ = 0.0;
  upper_adjust_prev_ = 0.0;
  lower_adjust_cur_ = 0.0;
  lower_adjust_prev_ = 0.0;
  offloading_ = false;
  interval_start_ = now;
  epoch_start_ = now;
  for (const Handle h : records_.active()) {
    serviced_[h] = 0;
    load_[h] = 0.0;
    counts_[h].clear();
    records_.At(h).acquired_at = now;
  }
}

void HostAgent::AcceptRepairReplica(ObjectId x, double unit_load, SimTime now) {
  RADAR_CHECK_GE(unit_load, 0.0);
  RADAR_CHECK_MSG(!HasObject(x), "repair replica already hosted");
  RADAR_CHECK_MSG(!StorageFull(), "repair replica pushed to a full host");
  const Handle h = InsertRecord(x);
  records_.At(h).acquired_at = now;
  load_[h] = unit_load;
  upper_adjust_cur_ += RecipientIncreaseBoundFromUnitLoad(unit_load);
}

double HostAgent::EpochSeconds(const ReplicaRecord& rec, SimTime now) const {
  return SimToSeconds(now - std::max(epoch_start_, rec.acquired_at));
}

double HostAgent::UnitAccessRate(ObjectId x, SimTime now) const {
  const Handle h = records_.HandleOf(x);
  if (h == Records::kNoHandle) return 0.0;
  const double seconds = EpochSeconds(records_.At(h), now);
  if (seconds <= 0.0) return 0.0;
  const double total = CountFor(CountsRow(h), self_);
  return total / static_cast<double>(records_.At(h).aff) / seconds;
}

std::uint32_t HostAgent::AccessCount(ObjectId x, NodeId p) const {
  RADAR_CHECK_GE(p, 0);
  RADAR_CHECK_LT(p, num_nodes_);
  const Handle h = records_.HandleOf(x);
  return h != Records::kNoHandle ? CountFor(CountsRow(h), p) : 0;
}

HostAgent::ReduceStep HostAgent::ReduceAffinity(ObjectId x,
                                                double migration_bound) {
  return ReduceStep{
      {PlacementIntent{PlacementIntent::Kind::kReduceAffinity, x,
                       CreateObjMethod::kMigrate, kInvalidNode, 0.0,
                       Affinity(x)},
       nullptr},
      this,
      migration_bound};
}

HostAgent::ReduceStep HostAgent::MigrateAway(ObjectId x, double object_load,
                                             int aff_before) {
  return ReduceAffinity(
      x, MigrationSourceDecreaseBound(object_load, aff_before));
}

bool HostAgent::ReduceStep::await_resume() const {
  const bool granted = Ask::await_resume();
  agent->lower_adjust_cur_ += migration_bound;
  const Handle h =
      granted ? agent->records_.HandleOf(intent.x) : Records::kNoHandle;
  if (h != Records::kNoHandle) {
    // One unit, whatever the affinity is now: a CreateObj accepted while
    // the round waited may have raised it, and the redirector's record
    // then holds that unit too.
    if (--agent->records_.At(h).aff == 0) agent->EraseRecord(intent.x);
  }
  return granted;
}

void HostAgent::CandidatesByFarthest(const CountRow& counts,
                                     double min_count,
                                     const PlacementContext& ctx,
                                     std::vector<NodeId>* out) {
  // Only qualifying nodes are ranked: most of a warm row falls below the
  // MIGR/REPL ratio, and filtering first spares them the distance lookup
  // and the sort. Distances are fetched once per candidate, not once per
  // comparison: a sort comparator that calls a virtual oracle is the
  // dominant cost of a placement round on large runs. The (distance
  // desc, id asc) key is a total order, so the result is independent of
  // the row's entry order. Both buffers keep their capacity — a placement
  // round calls this for every warm object, and per-call vectors
  // dominated the round's profile.
  candidate_scratch_.clear();
  for (const CountEntry& e : counts) {
    if (e.node != self_ && static_cast<double>(e.count) > min_count) {
      candidate_scratch_.push_back(Candidate{ctx.Distance(self_, e.node),
                                             e.node});
    }
  }
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.dist != b.dist) return a.dist > b.dist;
              return a.p < b.p;
            });
  out->clear();
  for (const Candidate& c : candidate_scratch_) out->push_back(c.p);
}

std::vector<HostAgent::Ranked> HostAgent::RankForOffload() {
  // Objects whose requests mostly pass by other hosts come first.
  std::vector<Ranked> ranked;
  ranked.reserve(records_.size());
  records_.ForEachKeyAscending([&](std::int64_t key, Handle h) {
    const CountRow& counts = CountsRow(h);
    const auto total = static_cast<double>(CountFor(counts, self_));
    double best = 0.0;
    if (total > 0.0) {
      for (const CountEntry& e : counts) {
        if (e.node == self_) continue;
        best = std::max(best, static_cast<double>(e.count) / total);
      }
    }
    ranked.push_back(Ranked{best, static_cast<ObjectId>(key)});
  });
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                                    const Ranked& b) {
    if (a.foreign_fraction != b.foreign_fraction) {
      return a.foreign_fraction > b.foreign_fraction;
    }
    return a.x < b.x;
  });
  return ranked;
}

// The round never holds a reference into agent storage across a co_await:
// requests (count-row appends) and CreateObjs (record inserts that grow
// the parallel arrays) may run while it is suspended. It keeps object ids
// and slab handles — a handle is a slot index, stable while its object is
// hosted, and only the round itself drops records — and re-reads records
// and rows through them after every resume. What it iterates lives in its
// own frame. Besides the frame, a round allocates its object list and,
// when offloading, its ranking: as per-agent scratch every agent would
// hold one, which cost ~5% peak RSS on the Fig. 9 hot-sites workload.
PlacementRound HostAgent::Placement(PlacementContext& ctx, SimTime now) {
  PlacementStats stats;
  std::vector<NodeId> candidates = std::move(candidate_out_);

  // Mode hysteresis (Fig. 3 preamble). The offloading decision uses the
  // lower-limit estimate (Sec. 2.1): a host that just shed objects should
  // not believe it is still overloaded.
  const double mode_load = OffloadLoad() / weight_;
  if (mode_load > params_->high_watermark) offloading_ = true;
  if (mode_load < params_->low_watermark) offloading_ = false;
  stats.offloading_mode = offloading_;

  const double u = params_->deletion_threshold_u;
  const double m = params_->replication_threshold_m;

  const std::vector<ObjectId> objects = Objects();
  for (const ObjectId x : objects) {
    const Handle h = records_.HandleOf(x);
    if (h == Records::kNoHandle) continue;
    const double seconds = EpochSeconds(records_.At(h), now);
    if (seconds <= 0.0) continue;
    const auto total = static_cast<double>(CountFor(CountsRow(h), self_));
    const double unit_rate =
        total / static_cast<double>(records_.At(h).aff) / seconds;

    bool relocated = false;
    if (unit_rate < u) {
      // Deletion branch: shed one affinity unit if the redirector allows.
      if (co_await ReduceAffinity(x)) {
        ++stats.affinity_drops;
        relocated = true;
      }
    } else if (total > 0.0) {
      // Geo-migration: the farthest host on > MIGR_RATIO of the requests'
      // preference paths (Sec. 4.2.1).
      CandidatesByFarthest(CountsRow(h), params_->migr_ratio * total, ctx,
                           &candidates);
      for (const NodeId p : candidates) {
        const int aff_before = records_.At(h).aff;
        const double object_load = load_[h];
        if (co_await CreateObj(CreateObjMethod::kMigrate, p, x,
                               UnitLoad(x))) {
          co_await MigrateAway(x, object_load, aff_before);
          ++stats.geo_migrations;
          relocated = true;
          break;
        }
      }
    }

    // Geo-replication: only if still fully present, above the replication
    // threshold, with a candidate past REPL_RATIO.
    if (!relocated && HasObject(x) && unit_rate > m && total > 0.0) {
      CandidatesByFarthest(CountsRow(h), params_->repl_ratio * total, ctx,
                           &candidates);
      for (const NodeId p : candidates) {
        const double object_load = load_[h];
        if (co_await CreateObj(CreateObjMethod::kReplicate, p, x,
                               UnitLoad(x))) {
          lower_adjust_cur_ += ReplicationSourceDecreaseBound(object_load);
          ++stats.geo_replications;
          break;
        }
      }
    }
  }

  // Fig. 3 triggers Offload when the geo pass did not relocate anything.
  // We generalize slightly: geo relocations debit the lower-bound load
  // estimate by their Theorem 1/3 decrease bounds, and Offload runs
  // whenever that estimate still exceeds the low watermark — "the host
  // continues in this manner until its load drops below a low water mark"
  // (Sec. 4.2). When the geo pass shed enough, this reduces to the
  // figure's literal condition; when its relocations were refused by
  // loaded recipients, the host still gets the load relief the offloading
  // mode exists to guarantee (see DESIGN.md).
  if (offloading_ && OffloadLoad() / weight_ > params_->low_watermark) {
    stats.ran_offload = true;
    // Fig. 5: shed objects to one underloaded recipient, using the
    // Theorem 1-4 bounds to pace the bulk transfer.
    const NodeId recipient = ctx.FindOffloadRecipient(self_);
    RADAR_CHECK_NE(recipient, self_);
    double recipient_load =
        recipient != kInvalidNode ? ctx.ReportedLoad(recipient) : 0.0;
    const std::vector<Ranked> ranked =
        recipient != kInvalidNode && recipient_load < params_->low_watermark
            ? RankForOffload()
            : std::vector<Ranked>{};
    for (const Ranked& r : ranked) {
      if (OffloadLoad() / weight_ <= params_->low_watermark) break;
      if (recipient_load >= params_->low_watermark) break;
      const ObjectId x = r.x;
      const Handle h = records_.HandleOf(x);
      if (h == Records::kNoHandle) continue;
      const int aff_before = records_.At(h).aff;
      const double object_load = load_[h];
      const double unit_load = object_load / static_cast<double>(aff_before);

      if (UnitAccessRate(x, now) <= m) {
        // Load-migration; heavily requested objects are never
        // load-migrated (that could undo a previous geo-replication,
        // Sec. 4.2.2).
        if (!co_await CreateObj(CreateObjMethod::kMigrate, recipient, x,
                                unit_load)) {
          break;
        }
        co_await MigrateAway(x, object_load, aff_before);
        ++stats.offload_migrations;
      } else {
        if (!co_await CreateObj(CreateObjMethod::kReplicate, recipient, x,
                                unit_load)) {
          break;
        }
        lower_adjust_cur_ += ReplicationSourceDecreaseBound(object_load);
        ++stats.offload_replications;
      }
      recipient_load += RecipientIncreaseBoundFromUnitLoad(unit_load) /
                        ctx.HostWeight(recipient);
      if (!params_->bulk_offload) break;
    }
  }

  // Start a new access-count epoch. Rows untouched this epoch are
  // already empty; clear() on a touched row drops its entries but keeps
  // the capacity, so the next epoch's bumps do not allocate.
  const std::size_t cap = records_.slot_capacity();
  for (std::size_t s = 0; s < cap; ++s) {
    counts_[s].clear();
  }
  epoch_start_ = now;
  candidate_out_ = std::move(candidates);
  co_return stats;
}

void HostAgent::set_weight(double weight) {
  RADAR_CHECK_GT(weight, 0.0);
  weight_ = weight;
}

void HostAgent::set_storage_capacity(std::int64_t max_objects) {
  RADAR_CHECK_GE(max_objects, 0);
  storage_capacity_ = max_objects;
}

bool HostAgent::StorageFull() const {
  return storage_capacity_ > 0 &&
         static_cast<std::int64_t>(records_.size()) >= storage_capacity_;
}

}  // namespace radar::core
