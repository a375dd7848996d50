// The fault injector: binds a FaultPlan to a topology and a simulator
// clock, and owns the platform's failure state during a run.
//
// Scripted events are scheduled verbatim; stochastic processes draw
// exponential up/down cycles from per-host and per-link child streams of a
// dedicated fault RNG root (Rng::Fork), so the fault realization is a pure
// function of (plan, seed) — independent of request traffic and of the
// experiment engine's job count. Message fates draw from one further
// stream in simulation-event order, which the simulator keeps
// deterministic.
//
// Failure semantics (DESIGN.md §11):
//   - Host crash = the server *process* dies; its disk survives. Replicas
//     on a crashed host are unavailable, never destroyed, so no fault
//     schedule can lose an object. Recovery hands the surviving replicas
//     back to the driver for re-registration.
//   - Link down/up changes the backbone topology; the driver patches the
//     network model's routes and latencies per applied link event. A link
//     fault that would disconnect the backbone is suppressed (and
//     counted): routing over a partitioned graph is undefined in this
//     model.
//   - Control-message faults perturb request legs (drop/delay) and the
//     synchronous CreateObj exchanges (bounded resends, then abort; or an
//     accepted transfer whose ack is lost — the source treats it as a
//     refusal and keeps its copy, so a relocation can duplicate an object
//     but never lose one).
//
// All fault probability parameters are consumed here and nowhere else
// (enforced by radar_lint's fault-confinement rule): the rest of the tree
// only asks the injector for verdicts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/protocol.h"
#include "fault/fault_plan.h"
#include "net/graph.h"
#include "sim/simulator.h"

namespace radar::fault {

/// Checks the plan's scripted events against the backbone before a run:
/// every crash/recover names a node of `graph`, every link-down/link-up
/// a link of it. Returns false and fills *error with the first mismatch.
/// FaultInjector::Start aborts on a plan that fails this check.
bool PlanFitsGraph(const FaultPlan& plan, const net::Graph& graph,
                   std::string* error);

/// Everything the injector counted; copied into the report at Finalize.
struct FaultCounters {
  std::int64_t host_crashes = 0;
  std::int64_t host_recoveries = 0;
  std::int64_t link_downs = 0;
  std::int64_t link_ups = 0;
  /// Link faults suppressed because they would disconnect the backbone.
  std::int64_t suppressed_link_faults = 0;
  std::int64_t requests_dropped = 0;
  std::int64_t requests_delayed = 0;
  /// Individual CreateObj sends that were lost (includes resends).
  std::int64_t transfer_messages_lost = 0;
  /// Resends after a lost CreateObj send (capped per exchange).
  std::int64_t transfer_retries = 0;
  std::int64_t acks_lost = 0;
  /// CreateObj exchanges abandoned after the resend cap.
  std::int64_t aborted_relocations = 0;
  /// CreateObj exchanges addressed to a crashed host.
  std::int64_t rpcs_to_dead_hosts = 0;
};

class FaultInjector {
 public:
  /// Driver callbacks. on_host_crash fires after the host is marked down
  /// (prune redirectors, reset the server queue); on_host_recover after it
  /// is marked up (re-register surviving replicas).
  struct Hooks {
    std::function<void(NodeId, SimTime)> on_host_crash;
    std::function<void(NodeId, SimTime)> on_host_recover;
    /// Fires per *applied* link state change (suppressed / no-op changes
    /// do not fire). The network model patches its routes incrementally
    /// from this — it needs to know which link moved, not just that
    /// something did.
    std::function<void(std::size_t link_index, bool up)> on_link_change;
  };

  /// A lost CreateObj send is retried at most this many times before the
  /// exchange is abandoned (the capped-backoff bound: the paper's
  /// synchronous RPC window absorbs the resend latency, so the cap is the
  /// observable part of the backoff).
  static constexpr int kMaxTransferRetries = 3;

  /// `graph` must outlive the injector; `seed` is the run seed (the
  /// injector derives its own disjoint stream). Scripted events must name
  /// hosts and links that exist in `graph`.
  FaultInjector(FaultPlan plan, const net::Graph& graph, sim::Simulator* sim,
                std::uint64_t seed, Hooks hooks);

  /// Schedules every scripted event, the stochastic processes' first
  /// transitions, and the quiesce point. Call once, before the run starts.
  void Start();

  // ---- State queries (no RNG draws) ----

  bool HostUp(NodeId n) const;
  bool LinkUp(std::size_t link_index) const;
  std::int32_t live_hosts() const;
  /// Increments on every crash of `n`; completions admitted before a crash
  /// compare epochs to detect that their host died under them.
  std::uint32_t crash_epoch(NodeId n) const;
  bool quiesced() const { return quiesced_; }

  // ---- Fate sampling (the only consumers of the plan's probabilities) ----

  struct RequestFate {
    bool dropped = false;
    SimTime delay = 0;
  };

  /// Samples the fate of one request's control legs.
  RequestFate FateForRequestLeg();

  /// Samples the fate of one CreateObj exchange addressed to `to`:
  /// kLost when the recipient is down or every resend was lost,
  /// kAcceptedAckLost when the transfer arrived but the ack did not.
  core::RpcFate FateForCreateObj(NodeId to, core::CreateObjMethod method);

  const FaultCounters& counters() const { return counters_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void Apply(const ScriptedEvent& ev);
  void ApplyHostCrash(NodeId h);
  void ApplyHostRecover(NodeId h);
  /// No-ops on a link already in the target state; ApplyLinkDown also
  /// suppresses (and counts) a change that would disconnect the backbone.
  void ApplyLinkDown(std::size_t link_index);
  void ApplyLinkUp(std::size_t link_index);
  void ScheduleHostCrashTimer(NodeId h);
  void ScheduleHostRecoverTimer(NodeId h);
  void ScheduleLinkDownTimer(std::size_t link_index);
  void ScheduleLinkUpTimer(std::size_t link_index);
  void Quiesce();
  bool WouldDisconnect(std::size_t link_index) const;
  std::size_t ResolveLink(NodeId a, NodeId b) const;

  FaultPlan plan_;
  const net::Graph& graph_;
  sim::Simulator* sim_;
  Hooks hooks_;
  std::vector<char> host_up_;
  std::vector<char> link_up_;
  std::vector<std::uint32_t> crash_epochs_;
  std::vector<Rng> host_rngs_;
  std::vector<Rng> link_rngs_;
  Rng msg_rng_;
  bool quiesced_ = false;
  bool started_ = false;
  FaultCounters counters_;
};

}  // namespace radar::fault
