// Traced run of a simulator workload: per-layer costs, measured from
// outside the engine.
//
// 1. Set-up is split by timing the public constructors separately:
//    topology generation, a stand-alone NetModel, and the rest of
//    HostingSimulation construction plus StepUntil(0).
// 2. One plain run (no tracing) gives the reference ns per request.
// 3. The traced run steps the real simulation in slices. At each slice
//    boundary it snapshots what the next slice's requests will read —
//    a copy of the (copyable) Redirector, copies of the FCFS servers, and
//    shadow HostAgents rebuilt from Objects()/Affinity() on first use —
//    and replays the slice's arrivals, regenerated through
//    Workload::FillBatch from the engine's Rng(seed).Fork(node) streams,
//    in time order through a bench-owned EventQueue: ChooseReplica, the
//    NetModel control/transfer lookups and AppendPath, FcfsServer::Admit,
//    RecordServicedIfHosted and LinkStats::RecordPath, each call timed
//    (queue operations and Admit in bulk, see Replay). It then advances
//    the real run to the next boundary, stepping to 1 us before every
//    measurement and placement tick and then onto the tick, so each
//    tick's cost is its own step.
// 4. Every per-call span pays two clock reads; the median cost of an
//    empty span is measured and subtracted from each.
//
// The replay uses state frozen at the slice start (no placement inside a
// slice), so it reproduces the engine's work per request, not its exact
// decisions; trace.layer_sum_share compares the per-request layer sum
// with the plain run's real cost per request.
#include "trace_replay.h"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/host_agent.h"
#include "core/redirector.h"
#include "driver/hosting_simulation.h"
#include "net/link_stats.h"
#include "net/net_model.h"
#include "sim/event_queue.h"
#include "sim/fcfs_server.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using radar::NodeId;
using radar::ObjectId;
using radar::SimTime;
using radar::driver::HostingSimulation;
using radar::driver::SimConfig;

/// Accepted |1 - trace.layer_sum_share|: the replay runs each layer on
/// state frozen at the slice start and in a separate event queue, so its
/// per-request costs match the engine's only to within cache effects.
constexpr double kReconciliationError = 0.35;
constexpr double kSliceSeconds = 10.0;
/// Events scheduled further ahead than the event queue's calendar wheel
/// (1024 buckets of 256 us, sim/event_queue.h) wait in its far heap.
constexpr SimTime kWheelHorizonUs = 1024 * 256;

/// Forwards to the engine's workload and records every object it draws,
/// so the replay can prove it regenerated the engine's exact stream.
class RecordingWorkload final : public radar::workload::Workload {
 public:
  RecordingWorkload(std::unique_ptr<radar::workload::Workload> inner,
                    std::int32_t num_nodes)
      : inner_(std::move(inner)),
        drawn_(static_cast<std::size_t>(num_nodes)) {}
  ObjectId NextObject(NodeId gateway, SimTime now, radar::Rng& rng) override {
    const ObjectId x = inner_->NextObject(gateway, now, rng);
    drawn_[static_cast<std::size_t>(gateway)].push_back(x);
    return x;
  }
  void FillBatch(NodeId gateway, SimTime now, radar::Rng& rng, ObjectId* out,
                 std::uint32_t count) override {
    inner_->FillBatch(gateway, now, rng, out, count);
    auto& d = drawn_[static_cast<std::size_t>(gateway)];
    d.insert(d.end(), out, out + count);
  }
  bool time_invariant() const override { return inner_->time_invariant(); }
  std::string name() const override { return inner_->name(); }
  ObjectId num_objects() const override { return inner_->num_objects(); }
  const std::vector<ObjectId>& drawn(NodeId g) const {
    return drawn_[static_cast<std::size_t>(g)];
  }

 private:
  std::unique_ptr<radar::workload::Workload> inner_;
  std::vector<std::vector<ObjectId>> drawn_;
};

/// Accumulated busy time of one layer, in seconds, with the empty-span
/// cost removed from every span.
struct Layer {
  double seconds = 0.0;
  std::int64_t calls = 0;
};

class Spans {
 public:
  explicit Spans(double empty_span) : empty_(empty_span) {}
  double Begin() const { return WallSeconds(); }
  /// Closes a span that is one call of `layer`.
  void End(Layer& layer, double begin) const {
    Add(layer, begin);
    ++layer.calls;
  }
  /// Closes a span that is part of a call counted elsewhere.
  void Add(Layer& layer, double begin) const {
    layer.seconds += WallSeconds() - begin - empty_;
  }

 private:
  double empty_;
};

struct Arrival {
  SimTime t;
  NodeId gateway;
  ObjectId object;
};

/// Regenerates every gateway's deterministic arrivals exactly as
/// HostingSimulation::GatewayArrivals does: period, phase, 256-object
/// FillBatch blocks from the gateway's forked stream.
class ArrivalStreams {
 public:
  ArrivalStreams(const SimConfig& config, const radar::net::Topology& topology,
                 radar::workload::Workload* workload)
      : workload_(workload) {
    const auto period = static_cast<SimTime>(
        static_cast<double>(radar::kMicrosPerSecond) /
        config.node_request_rate);
    radar::Rng root(config.seed);
    for (const NodeId g : topology.GatewayNodes()) {
      Stream s;
      s.gateway = g;
      s.period = period;
      s.next_at = period * static_cast<SimTime>(g) /
                  static_cast<SimTime>(topology.num_nodes());
      s.rng = root.Fork(static_cast<std::uint64_t>(g));
      streams_.push_back(std::move(s));
    }
  }

  /// Replaces `out` with the arrivals after the previous call up to and
  /// including `to`, in time order; FillBatch time goes to `fill`.
  void Take(SimTime to, const Spans& spans, Layer& fill,
            std::vector<Arrival>* out) {
    out->clear();
    for (Stream& s : streams_) {
      while (s.next_at <= to) {
        if (s.next == s.filled) {
          const double b = spans.Begin();
          workload_->FillBatch(s.gateway, s.next_at, s.rng, s.batch.data(),
                               kBatch);
          spans.Add(fill, b);
          fill.calls += kBatch;  // cost per drawn object
          s.drawn.insert(s.drawn.end(), s.batch.begin(), s.batch.end());
          s.next = 0;
          s.filled = kBatch;
        }
        out->push_back({s.next_at, s.gateway, s.batch[s.next++]});
        s.next_at += s.period;
      }
    }
    std::stable_sort(out->begin(), out->end(),
                     [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  }

  bool SameDraws(const RecordingWorkload& engine) const {
    for (const Stream& s : streams_) {
      if (s.drawn != engine.drawn(s.gateway)) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kBatch = 256;  // GatewayArrivals::kBatch
  struct Stream {
    NodeId gateway = radar::kInvalidNode;
    SimTime period = 0;
    SimTime next_at = 0;
    radar::Rng rng{0};
    std::vector<ObjectId> batch = std::vector<ObjectId>(kBatch);
    std::uint32_t next = 0;
    std::uint32_t filled = 0;
    std::vector<ObjectId> drawn;
  };
  radar::workload::Workload* workload_;
  std::vector<Stream> streams_;
};

/// Measurement ticks and per-host placement ticks up to `duration`
/// (HostingSimulation::ScheduleMeasurement / SchedulePlacement).
struct Tick {
  SimTime t;
  bool placement;
};
std::vector<Tick> TickTimes(const SimConfig& config, std::int32_t nodes) {
  std::vector<Tick> ticks;
  const SimTime m = config.protocol.measurement_interval;
  for (SimTime t = m; t <= config.duration; t += m) ticks.push_back({t, false});
  const SimTime p = config.protocol.placement_interval;
  for (NodeId n = 0; n < nodes; ++n) {
    const SimTime offset = config.stagger_placement
                               ? p * static_cast<SimTime>(n + 1) /
                                     static_cast<SimTime>(nodes + 1)
                               : 0;
    for (SimTime t = p + offset; t <= config.duration; t += p) {
      ticks.push_back({t, true});
    }
  }
  std::sort(ticks.begin(), ticks.end(), [](const Tick& a, const Tick& b) {
    return a.t < b.t || (a.t == b.t && !a.placement && b.placement);
  });
  return ticks;
}

/// What one slice's replay reads, frozen at the slice start.
class Shadow {
 public:
  Shadow(HostingSimulation& sim, const SimConfig& config)
      : sim_(sim),
        config_(config),
        agents_(static_cast<std::size_t>(sim.topology().num_nodes())),
        servers_(static_cast<std::size_t>(sim.topology().num_nodes()),
                 radar::sim::FcfsServer(config.server_capacity)),
        copied_(static_cast<std::size_t>(sim.topology().num_nodes()), 0) {}

  /// Re-snapshots at the current simulated time (agents lazily).
  void Reset() {
    // Copy-constructed: the Redirector holds its distance oracle by
    // reference, so it copies but does not assign.
    redirector_.emplace(sim_.cluster().redirectors().At(0));
    std::fill(copied_.begin(), copied_.end(), 0);
  }

  radar::core::Redirector& redirector() { return *redirector_; }

  radar::core::HostAgent& agent(NodeId n) {
    Touch(n);
    return *agents_[static_cast<std::size_t>(n)];
  }
  radar::sim::FcfsServer& server(NodeId n) {
    Touch(n);
    return servers_[static_cast<std::size_t>(n)];
  }

 private:
  void Touch(NodeId n) {
    const auto i = static_cast<std::size_t>(n);
    if (copied_[i] != 0) return;
    copied_[i] = 1;
    servers_[i] = sim_.server(n);
    const radar::core::HostAgent& real = sim_.cluster().host(n);
    auto shadow = std::make_unique<radar::core::HostAgent>(
        n, sim_.topology().num_nodes(), &config_.protocol);
    for (const ObjectId x : real.Objects()) {
      shadow->AddInitialReplica(x, real.Affinity(x));
    }
    agents_[i] = std::move(shadow);
  }

  HostingSimulation& sim_;
  const SimConfig& config_;
  std::optional<radar::core::Redirector> redirector_;
  std::vector<std::unique_ptr<radar::core::HostAgent>> agents_;
  std::vector<radar::sim::FcfsServer> servers_;
  std::vector<char> copied_;
};

struct Layers {
  Layer fill, choose, latency, path, admit, record, link_stats, event;
  Layer placement, measure;
  std::int64_t requests = 0;
  std::int64_t spilled = 0;
  std::int64_t far_events = 0;
  std::int64_t hops = 0;
  double latency_sum_s = 0.0;
};

/// The per-slice replay: a miniature of the engine's request path on the
/// snapshot, driven by a bench-owned event queue. The cheapest layers —
/// queue operations and FCFS admission, a few ns each — are timed in bulk
/// instead: their exact call sequence is recorded and re-run through a
/// warm queue and warm servers under one span, so clock reads do not
/// swamp them.
class Replay {
 public:
  Replay(HostingSimulation& sim, const SimConfig& config, Shadow& shadow,
         const Spans& spans, Layers& layers)
      : config_(config),
        net_(sim.net_model()),
        shadow_(shadow),
        spans_(spans),
        layers_(layers),
        link_stats_(sim.topology().graph()),
        bulk_servers_(static_cast<std::size_t>(sim.topology().num_nodes()),
                      radar::sim::FcfsServer(config.server_capacity)) {}

  void Run(const std::vector<Arrival>& arrivals) {
    queue_ops_.clear();
    admits_.clear();
    for (const Arrival& a : arrivals) {
      DrainUntil(a.t);
      Dispatch(a);
    }
    DrainUntil(INT64_MAX);
    TimeQueueOps();
    TimeAdmits();
  }

  std::int64_t sink() const { return sink_; }

 private:
  static constexpr SimTime kPop = -1;

  void DrainUntil(SimTime until) {
    SimTime when = 0;
    std::uint32_t slot = 0;
    while (queue_.PopEntryIfNotAfter(until, &when, &slot)) {
      queue_ops_.push_back(kPop);
      now_ = when;
      queue_.InvokeAndReleaseSlot(slot);
    }
  }

  template <class F>
  void Push(SimTime when, F&& fn) {
    if (when - now_ > kWheelHorizonUs) ++layers_.far_events;
    queue_ops_.push_back(when);
    queue_.Push(when, std::forward<F>(fn));
  }

  /// The slice's push/pop sequence through a warm queue, with closures of
  /// the engine's capture size (a pointer, two ids and a time).
  void TimeQueueOps() {
    SimTime when = 0;
    std::uint32_t slot = 0;
    std::int64_t events = 0;
    const double b = spans_.Begin();
    for (const SimTime op : queue_ops_) {
      if (op == kPop) {
        bulk_queue_.PopEntryIfNotAfter(INT64_MAX, &when, &slot);
        bulk_queue_.InvokeAndReleaseSlot(slot);
        ++events;
      } else {
        const NodeId a = static_cast<NodeId>(op & 0xffff);
        bulk_queue_.Push(op, [this, a, op] { sink_ += op + a; });
      }
    }
    spans_.Add(layers_.event, b);
    layers_.event.calls += events;
  }

  void TimeAdmits() {
    // Fresh servers: the next slice's first arrivals may precede this
    // slice's last ones (Admit wants non-decreasing arrivals).
    bulk_servers_.assign(bulk_servers_.size(),
                         radar::sim::FcfsServer(config_.server_capacity));
    const double b = spans_.Begin();
    for (const auto& [host, at] : admits_) {
      sink_ += bulk_servers_[static_cast<std::size_t>(host)].Admit(at);
    }
    spans_.Add(layers_.admit, b);
    layers_.admit.calls += static_cast<std::int64_t>(admits_.size());
  }

  void Dispatch(const Arrival& a) {
    now_ = a.t;
    radar::core::Redirector& r = shadow_.redirector();
    if (r.ReplicaCount(a.object) >= 2) ++layers_.spilled;
    double b = spans_.Begin();
    const NodeId host = r.ChooseReplica(a.object, a.gateway, net_.HopRow(a.gateway));
    spans_.End(layers_.choose, b);
    ++layers_.requests;
    if (host == radar::kInvalidNode) return;
    const NodeId home = r.home_node();
    b = spans_.Begin();
    const SimTime control =
        net_.ControlRow(a.gateway)[home] + net_.ControlRow(home)[host];
    spans_.End(layers_.latency, b);
    const ObjectId x = a.object;
    const NodeId g = a.gateway;
    const SimTime t0 = a.t;
    Push(a.t + control, [this, x, g, host, t0] { Arrive(x, g, host, t0); });
  }

  void Arrive(ObjectId x, NodeId g, NodeId host, SimTime t0) {
    admits_.emplace_back(host, now_);
    const SimTime done = shadow_.server(host).Admit(now_);
    Push(done, [this, x, g, host, t0] { Complete(x, g, host, t0); });
  }

  void Complete(ObjectId x, NodeId g, NodeId host, SimTime t0) {
    radar::core::HostAgent& agent = shadow_.agent(host);
    double b = spans_.Begin();
    path_.clear();
    net_.AppendPath(host, g, &path_);
    spans_.End(layers_.path, b);
    b = spans_.Begin();
    agent.RecordServicedIfHosted(x, path_);
    spans_.End(layers_.record, b);
    b = spans_.Begin();
    link_stats_.RecordPath(path_, config_.object_bytes);
    spans_.End(layers_.link_stats, b);
    b = spans_.Begin();
    const SimTime response = net_.Transfer(host, g);
    spans_.Add(layers_.latency, b);  // with Dispatch's control lookups
    layers_.hops += static_cast<std::int64_t>(path_.size()) - 1;
    layers_.latency_sum_s += radar::SimToSeconds(now_ - t0 + response);
  }

  const SimConfig& config_;
  const radar::net::NetModel& net_;
  Shadow& shadow_;
  const Spans& spans_;
  Layers& layers_;
  radar::net::LinkStats link_stats_;
  radar::sim::EventQueue queue_;
  radar::sim::EventQueue bulk_queue_;
  std::vector<radar::sim::FcfsServer> bulk_servers_;
  std::vector<SimTime> queue_ops_;  ///< push times; kPop for a pop
  std::vector<std::pair<NodeId, SimTime>> admits_;
  std::vector<NodeId> path_;
  SimTime now_ = 0;
  std::int64_t sink_ = 0;  ///< keeps the bulk-timed results observable
};

double PerCallNs(const Layer& l) {
  return l.calls > 0 ? l.seconds * 1e9 / static_cast<double>(l.calls) : 0.0;
}

}  // namespace

int RunTraced(const SimWorkload& w, const Args& args) {
  Result result;
  const SimConfig config = MakeConfig(w, args.seed);
  const double empty_span = EmptySpanSeconds();
  const Spans spans(empty_span);

  // ---- Set-up, split by public constructor.
  double t = WallSeconds();
  radar::net::Topology topology = MakeTopology(w);
  const double topology_s = WallSeconds() - t;
  t = WallSeconds();
  {
    const radar::net::NetModel net(topology, config.object_bytes,
                                   config.oracle);
  }
  const double net_model_s = WallSeconds() - t;

  // ---- Plain run: the untraced reference cost per request.
  double plain_wall = 0.0;
  std::int64_t plain_completed = 0;
  {
    HostingSimulation plain(config, MakeTopology(w));
    plain.SetWorkload(MakeWorkload(w, plain.topology()));
    plain.StepUntil(0);
    const double p0 = WallSeconds();
    const radar::driver::RunReport report = plain.Finalize();
    plain_wall = WallSeconds() - p0;
    plain_completed = report.total_requests;
  }

  // ---- Traced run.
  t = WallSeconds();
  HostingSimulation sim(config, std::move(topology));
  const radar::net::Topology& topo = sim.topology();
  auto engine_workload = std::make_unique<RecordingWorkload>(
      MakeWorkload(w, topo), topo.num_nodes());
  RecordingWorkload* recorder = engine_workload.get();
  sim.SetWorkload(std::move(engine_workload));
  std::int64_t rpc_attempts = 0;
  sim.cluster().set_rpc_filter(
      [&rpc_attempts](NodeId, NodeId, radar::core::CreateObjMethod, ObjectId) {
        ++rpc_attempts;
        return radar::core::RpcFate::kDeliver;
      });
  sim.StepUntil(0);
  const double sim_setup_s = WallSeconds() - t;

  auto bench_workload = MakeWorkload(w, topo);
  ArrivalStreams streams(config, topo, bench_workload.get());
  Layers layers;
  Shadow shadow(sim, config);
  Replay replay(sim, config, shadow, spans, layers);
  const std::vector<Tick> ticks = TickTimes(config, topo.num_nodes());
  std::size_t next_tick = 0;
  std::vector<Arrival> arrivals;
  double real_wall = 0.0;
  double backlog_max_s = 0.0;
  const SimTime slice = radar::SecondsToSim(kSliceSeconds);
  for (SimTime from = 0; from < config.duration;) {
    const SimTime to = std::min(from + slice, config.duration);
    // Replay the slice's arrivals on the state at `from` (the first slice
    // starts after StepUntil(0) already ran the arrivals at time 0).
    shadow.Reset();
    streams.Take(to, spans, layers.fill, &arrivals);
    replay.Run(arrivals);
    // Advance the real run, giving every tick its own step.
    while (next_tick < ticks.size() && ticks[next_tick].t <= to) {
      const Tick& tick = ticks[next_tick++];
      const double before = WallSeconds();
      sim.StepUntil(std::max(tick.t - 1, sim.Now()));  // ticks may share a time
      const double at = WallSeconds();
      sim.StepUntil(tick.t);
      const double after = WallSeconds();
      real_wall += after - before;
      Layer& layer = tick.placement ? layers.placement : layers.measure;
      layer.seconds += after - at;
      ++layer.calls;
    }
    const double before = WallSeconds();
    sim.StepUntil(to);
    real_wall += WallSeconds() - before;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      backlog_max_s = std::max(
          backlog_max_s, radar::SimToSeconds(sim.server(n).BacklogAt(to)));
    }
    from = to;
  }
  t = WallSeconds();
  const radar::driver::RunReport report = sim.Finalize();
  const double finalize_s = WallSeconds() - t;
  real_wall += finalize_s;

  // ---- Checks: the replay saw the engine's exact request stream.
  result.Check("replay regenerated the engine's object draws",
               streams.SameDraws(*recorder), "per-gateway FillBatch streams");
  const std::int64_t completed = report.total_requests;
  result.Check("traced run repeats the plain run", completed == plain_completed,
               "total_requests=" + std::to_string(completed) + "/" +
                   std::to_string(plain_completed));
  // Every replayed request is one the real run generated: the replayed
  // count must balance the real run's own account.
  const RequestAccount account =
      AccountRequests(sim, config, report, layers.requests);
  result.Check("replayed requests == completed + dropped + failed + queued "
               "+ in_transit of the real run, 0 <= in_transit <= bound",
               account.balanced(), account.Detail());

  // ---- Layer sums and reconciliation.
  const auto req = static_cast<double>(completed);
  const double events_per_req =
      static_cast<double>(sim.events_executed()) / req;
  const double fill_ns = PerCallNs(layers.fill);
  const double choose_ns = PerCallNs(layers.choose);
  const double latency_ns = PerCallNs(layers.latency);
  const double path_ns = PerCallNs(layers.path);
  const double admit_ns = PerCallNs(layers.admit);
  const double record_ns = PerCallNs(layers.record);
  const double link_ns = PerCallNs(layers.link_stats);
  const double event_ns = PerCallNs(layers.event);
  const double placement_us = PerCallNs(layers.placement) / 1e3;
  const double measure_ms = PerCallNs(layers.measure) / 1e6;
  const double layer_sum_ns =
      fill_ns + choose_ns + latency_ns + path_ns + admit_ns + record_ns +
      link_ns + event_ns * events_per_req +
      (layers.placement.seconds + layers.measure.seconds) * 1e9 / req;
  const double plain_ns = plain_wall * 1e9 / static_cast<double>(plain_completed);
  const double share = layer_sum_ns / plain_ns;
  result.Check("trace.layer_sum_share within the stated reconciliation error",
               share > 1.0 - kReconciliationError &&
                   share < 1.0 + kReconciliationError,
               "layer_sum_share=" + std::to_string(share) + " error=" +
                   std::to_string(kReconciliationError));

  result.Metric("core.host_agent.record_ns", record_ns, "ns");
  result.Metric("core.redirector.choose_ns", choose_ns, "ns");
  result.Metric("core.redirector.spill_share",
                static_cast<double>(layers.spilled) /
                    static_cast<double>(layers.requests),
                "ratio");
  const radar::core::Redirector& real_redirector =
      sim.cluster().redirectors().At(0);
  result.Metric("core.redirector.set_changes_per_kreq",
                static_cast<double>(real_redirector.replica_set_changes()) *
                    1e3 / req,
                "count");
  result.Metric("core.cluster.placement_us", placement_us, "us");
  result.Metric("core.cluster.measure_ms", measure_ms, "ms");
  result.Metric("core.cluster.create_accept_share",
                rpc_attempts > 0 ? static_cast<double>(report.TotalRelocations()) /
                                       static_cast<double>(rpc_attempts)
                                 : 0.0,
                "ratio");
  result.Metric("net.path_ns", path_ns, "ns");
  result.Metric("net.latency_ns", latency_ns, "ns");
  result.Metric("net.link_stats_ns", link_ns, "ns");
  result.Metric("net.path_hops",
                static_cast<double>(layers.hops) /
                    static_cast<double>(layers.record.calls),
                "count");
  result.Metric("sim.event_queue.event_ns", event_ns, "ns");
  result.Metric("sim.event_queue.far_share",
                static_cast<double>(layers.far_events) /
                    static_cast<double>(std::max<std::int64_t>(1, layers.event.calls)),
                "ratio");
  result.Metric("sim.events_per_req", events_per_req, "count");
  result.Metric("sim.fcfs.admit_ns", admit_ns, "ns");
  result.Metric("sim.fcfs.backlog_s_max", backlog_max_s, "s");
  result.Metric("driver.setup.topology_s", topology_s, "s");
  result.Metric("driver.setup.net_model_s", net_model_s, "s");
  result.Metric("driver.setup.rest_s", sim_setup_s - net_model_s, "s");
  result.Metric("driver.finalize_s", finalize_s, "s");
  result.Metric("workload.fill_ns", fill_ns, "ns");
  result.Metric("trace.span_ns", empty_span * 1e9, "ns");
  result.Metric("trace.layer_sum_share", share, "ratio");
  result.Metric("trace.overhead_share", real_wall / plain_wall - 1.0, "ratio");

  result.set_attempted(layers.requests);
  result.set_failed(report.dropped_requests +
                    report.availability.failed_requests);
  result.Info("reconciliation_error", kReconciliationError);
  result.Info("layer_sum_ns_per_req", layer_sum_ns);
  result.Info("plain_ns_per_req", plain_ns);
  result.Info("placement_rounds", layers.placement.calls);
  result.Info("measure_ticks", layers.measure.calls);
  result.Info("replayed_mean_latency_ms",
              layers.latency_sum_s * 1e3 /
                  static_cast<double>(std::max<std::int64_t>(1, layers.record.calls)));
  result.Info("real_mean_latency_ms", report.latency_stats.mean() * 1e3);
  result.Info("bulk_sink", replay.sink());
  std::cout << result.Dump() << "\n";
  return result.correct() ? 0 : 1;
}

}  // namespace perfbench
