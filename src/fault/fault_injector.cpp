#include "fault/fault_injector.h"

#include <sstream>
#include <utility>

#include "common/check.h"

namespace radar::fault {
namespace {

// Stream-index bases keeping host, link, and message streams disjoint
// for any realistic topology size (hosts occupy [0, 2^20)).
constexpr std::uint64_t kLinkStreamBase = 1ULL << 20;
constexpr std::uint64_t kMessageStream = 1ULL << 21;

}  // namespace

bool PlanFitsGraph(const FaultPlan& plan, const net::Graph& graph,
                   std::string* error) {
  for (const ScriptedEvent& ev : plan.scripted) {
    const bool host_event = ev.kind == FaultKind::kHostCrash ||
                            ev.kind == FaultKind::kHostRecover;
    if (host_event ? ev.host >= 0 && ev.host < graph.num_nodes()
                   : graph.HasLink(ev.link_a, ev.link_b)) {
      continue;
    }
    if (error != nullptr) {
      // Echo the directive as written ("crash HOST T_SEC", "link-down A B
      // T_SEC"), then what the topology lacks.
      std::ostringstream os;
      os << FaultKindName(ev.kind) << ' ';
      if (host_event) {
        os << ev.host << ' ' << SimToSeconds(ev.at)
           << ": the topology has no host " << ev.host << " ("
           << graph.num_nodes() << " nodes)";
      } else {
        os << ev.link_a << ' ' << ev.link_b << ' ' << SimToSeconds(ev.at)
           << ": the topology has no link " << ev.link_a << '-'
           << ev.link_b;
      }
      *error = os.str();
    }
    return false;
  }
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan, const net::Graph& graph,
                             sim::Simulator* sim, std::uint64_t seed,
                             Hooks hooks)
    : plan_(std::move(plan)),
      graph_(graph),
      sim_(sim),
      hooks_(std::move(hooks)),
      host_up_(static_cast<std::size_t>(graph.num_nodes()), 1),
      link_up_(graph.num_links(), 1),
      crash_epochs_(static_cast<std::size_t>(graph.num_nodes()), 0),
      msg_rng_(0) {
  RADAR_CHECK(sim_ != nullptr);
  plan_.Check();
  const Rng root(seed ^ 0xFA17C0DEULL);
  host_rngs_.reserve(host_up_.size());
  for (std::size_t h = 0; h < host_up_.size(); ++h) {
    host_rngs_.push_back(root.Fork(static_cast<std::uint64_t>(h)));
  }
  link_rngs_.reserve(link_up_.size());
  for (std::size_t l = 0; l < link_up_.size(); ++l) {
    link_rngs_.push_back(root.Fork(kLinkStreamBase + l));
  }
  msg_rng_ = root.Fork(kMessageStream);
}

void FaultInjector::Start() {
  RADAR_CHECK_MSG(!started_, "FaultInjector::Start called twice");
  started_ = true;
  std::string error;
  RADAR_CHECK_MSG(PlanFitsGraph(plan_, graph_, &error), error.c_str());
  for (const ScriptedEvent& ev : plan_.scripted) {
    sim_->ScheduleAt(ev.at, [this, ev] { Apply(ev); });
  }
  if (plan_.host_faults.enabled()) {
    for (std::size_t h = 0; h < host_up_.size(); ++h) {
      ScheduleHostCrashTimer(static_cast<NodeId>(h));
    }
  }
  if (plan_.link_faults.enabled()) {
    for (std::size_t l = 0; l < link_up_.size(); ++l) {
      ScheduleLinkDownTimer(l);
    }
  }
  if (plan_.quiesce_at > 0) {
    sim_->ScheduleAt(plan_.quiesce_at, [this] { Quiesce(); });
  }
}

bool FaultInjector::HostUp(NodeId n) const {
  return host_up_[static_cast<std::size_t>(n)] != 0;
}

bool FaultInjector::LinkUp(std::size_t link_index) const {
  return link_up_[link_index] != 0;
}

std::int32_t FaultInjector::live_hosts() const {
  std::int32_t live = 0;
  for (const char up : host_up_) live += up != 0 ? 1 : 0;
  return live;
}

std::uint32_t FaultInjector::crash_epoch(NodeId n) const {
  return crash_epochs_[static_cast<std::size_t>(n)];
}

FaultInjector::RequestFate FaultInjector::FateForRequestLeg() {
  RequestFate fate;
  const double drop = plan_.DropProb(MessageClass::kRequest);
  if (drop > 0.0 && msg_rng_.NextBool(drop)) {
    ++counters_.requests_dropped;
    fate.dropped = true;
    return fate;
  }
  if (plan_.request_delay_prob > 0.0 &&
      msg_rng_.NextBool(plan_.request_delay_prob)) {
    ++counters_.requests_delayed;
    fate.delay = plan_.request_delay;
  }
  return fate;
}

core::RpcFate FaultInjector::FateForCreateObj(NodeId to,
                                              core::CreateObjMethod method) {
  if (!HostUp(to)) {
    ++counters_.rpcs_to_dead_hosts;
    return core::RpcFate::kLost;
  }
  const MessageClass cls = method == core::CreateObjMethod::kMigrate
                               ? MessageClass::kMigrate
                               : MessageClass::kReplicate;
  const double drop = plan_.DropProb(cls);
  if (drop > 0.0) {
    int resends = 0;
    while (msg_rng_.NextBool(drop)) {
      ++counters_.transfer_messages_lost;
      if (resends == kMaxTransferRetries) {
        ++counters_.aborted_relocations;
        return core::RpcFate::kLost;
      }
      ++resends;
      ++counters_.transfer_retries;
    }
  }
  const double ack_drop = plan_.DropProb(MessageClass::kAck);
  if (ack_drop > 0.0 && msg_rng_.NextBool(ack_drop)) {
    ++counters_.acks_lost;
    return core::RpcFate::kAcceptedAckLost;
  }
  return core::RpcFate::kDeliver;
}

void FaultInjector::Apply(const ScriptedEvent& ev) {
  if (quiesced_) return;
  switch (ev.kind) {
    case FaultKind::kHostCrash:
      ApplyHostCrash(ev.host);
      break;
    case FaultKind::kHostRecover:
      ApplyHostRecover(ev.host);
      break;
    case FaultKind::kLinkDown:
      ApplyLinkDown(ResolveLink(ev.link_a, ev.link_b));
      break;
    case FaultKind::kLinkUp:
      ApplyLinkUp(ResolveLink(ev.link_a, ev.link_b));
      break;
  }
}

void FaultInjector::ApplyHostCrash(NodeId h) {
  const auto i = static_cast<std::size_t>(h);
  if (host_up_[i] == 0) return;
  host_up_[i] = 0;
  ++crash_epochs_[i];
  ++counters_.host_crashes;
  if (hooks_.on_host_crash) hooks_.on_host_crash(h, sim_->Now());
}

void FaultInjector::ApplyHostRecover(NodeId h) {
  const auto i = static_cast<std::size_t>(h);
  if (host_up_[i] != 0) return;
  host_up_[i] = 1;
  ++counters_.host_recoveries;
  if (hooks_.on_host_recover) hooks_.on_host_recover(h, sim_->Now());
}

void FaultInjector::ApplyLinkDown(std::size_t link_index) {
  if (link_up_[link_index] == 0) return;
  if (WouldDisconnect(link_index)) {
    ++counters_.suppressed_link_faults;
    return;
  }
  link_up_[link_index] = 0;
  ++counters_.link_downs;
  if (hooks_.on_link_change) hooks_.on_link_change(link_index, false);
}

void FaultInjector::ApplyLinkUp(std::size_t link_index) {
  if (link_up_[link_index] != 0) return;
  link_up_[link_index] = 1;
  ++counters_.link_ups;
  if (hooks_.on_link_change) hooks_.on_link_change(link_index, true);
}

// The stochastic processes alternate crash/repair timers per host (and
// down/up timers per link), each delay drawn from that entity's own child
// stream at the moment the previous timer fires. The chain always draws
// and reschedules — a transition whose state was already reached by a
// scripted event is skipped but its delay is still consumed, so the fault
// realization stays a pure function of (plan, seed).

void FaultInjector::ScheduleHostCrashTimer(NodeId h) {
  const double wait_s = host_rngs_[static_cast<std::size_t>(h)].NextExponential(
      plan_.host_faults.mtbf_s);
  sim_->Schedule(SecondsToSim(wait_s), [this, h] {
    if (quiesced_) return;
    ApplyHostCrash(h);
    ScheduleHostRecoverTimer(h);
  });
}

void FaultInjector::ScheduleHostRecoverTimer(NodeId h) {
  const double wait_s = host_rngs_[static_cast<std::size_t>(h)].NextExponential(
      plan_.host_faults.mttr_s);
  sim_->Schedule(SecondsToSim(wait_s), [this, h] {
    if (quiesced_) return;
    ApplyHostRecover(h);
    ScheduleHostCrashTimer(h);
  });
}

void FaultInjector::ScheduleLinkDownTimer(std::size_t link_index) {
  const double wait_s =
      link_rngs_[link_index].NextExponential(plan_.link_faults.mtbf_s);
  sim_->Schedule(SecondsToSim(wait_s), [this, link_index] {
    if (quiesced_) return;
    ApplyLinkDown(link_index);
    ScheduleLinkUpTimer(link_index);
  });
}

void FaultInjector::ScheduleLinkUpTimer(std::size_t link_index) {
  const double wait_s =
      link_rngs_[link_index].NextExponential(plan_.link_faults.mttr_s);
  sim_->Schedule(SecondsToSim(wait_s), [this, link_index] {
    if (quiesced_) return;
    ApplyLinkUp(link_index);
    ScheduleLinkDownTimer(link_index);
  });
}

void FaultInjector::Quiesce() {
  quiesced_ = true;
  for (std::size_t h = 0; h < host_up_.size(); ++h) {
    ApplyHostRecover(static_cast<NodeId>(h));
  }
  for (std::size_t l = 0; l < link_up_.size(); ++l) ApplyLinkUp(l);
}

bool FaultInjector::WouldDisconnect(std::size_t link_index) const {
  net::Graph candidate(graph_.num_nodes());
  for (std::size_t l = 0; l < link_up_.size(); ++l) {
    if (l == link_index || link_up_[l] == 0) continue;
    const net::Link& lk = graph_.link(static_cast<std::int32_t>(l));
    candidate.AddLink(lk.a, lk.b, lk.delay, lk.bandwidth_bps);
  }
  return !candidate.IsConnected();
}

std::size_t FaultInjector::ResolveLink(NodeId a, NodeId b) const {
  const std::vector<net::Link>& links = graph_.links();
  for (std::size_t l = 0; l < links.size(); ++l) {
    if ((links[l].a == a && links[l].b == b) ||
        (links[l].a == b && links[l].b == a)) {
      return l;
    }
  }
  RADAR_CHECK_MSG(false, "fault plan names a link absent from the topology");
  return 0;
}

}  // namespace radar::fault
