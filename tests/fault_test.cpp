// Tests for the fault-injection subsystem (src/fault) and the driver's
// reaction to it: plan parsing, message-fate counters, unavailability
// accounting, link-fault rerouting, the self-healing replica floor, and
// the determinism guarantees (fault-free runs untouched; chaotic runs
// byte-reproducible for a fixed plan and seed).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report_json.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/net_model.h"
#include "net/topology.h"
#include "net/uunet.h"
#include "sim/simulator.h"

namespace radar {
namespace {

fault::FaultPlan MustParse(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  auto plan = fault::ParseFaultPlan(in, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(fault::FaultPlan{});
}

// ---------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryDirective) {
  const fault::FaultPlan plan = MustParse(
      "# a chaotic afternoon\n"
      "crash 5 30\n"
      "recover 5 60\n"
      "link-down 0 1 10\n"
      "link-up 0 1 40\n"
      "host-faults 300 60\n"
      "link-faults 600 45\n"
      "loss request 0.01\n"
      "loss replicate 0.05\n"
      "loss migrate 0.04\n"
      "loss ack 0.02\n"
      "delay request 0.1 25\n"
      "quiesce 480\n");
  ASSERT_EQ(plan.scripted.size(), 4u);
  EXPECT_EQ(plan.scripted[0].kind, fault::FaultKind::kHostCrash);
  EXPECT_EQ(plan.scripted[0].host, 5);
  EXPECT_EQ(plan.scripted[0].at, SecondsToSim(30.0));
  EXPECT_EQ(plan.scripted[2].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(plan.scripted[2].link_a, 0);
  EXPECT_EQ(plan.scripted[2].link_b, 1);
  EXPECT_DOUBLE_EQ(plan.host_faults.mtbf_s, 300.0);
  EXPECT_DOUBLE_EQ(plan.host_faults.mttr_s, 60.0);
  EXPECT_TRUE(plan.link_faults.enabled());
  EXPECT_DOUBLE_EQ(plan.DropProb(fault::MessageClass::kRequest), 0.01);
  EXPECT_DOUBLE_EQ(plan.DropProb(fault::MessageClass::kReplicate), 0.05);
  EXPECT_DOUBLE_EQ(plan.DropProb(fault::MessageClass::kMigrate), 0.04);
  EXPECT_DOUBLE_EQ(plan.DropProb(fault::MessageClass::kAck), 0.02);
  EXPECT_DOUBLE_EQ(plan.request_delay_prob, 0.1);
  EXPECT_EQ(plan.request_delay, SecondsToSim(0.025));
  EXPECT_EQ(plan.quiesce_at, SecondsToSim(480.0));
  EXPECT_FALSE(plan.Empty());
}

TEST(FaultPlanTest, ReportsLineNumberedErrors) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(fault::ParseFaultPlan(in, &error).has_value()) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error was: " << error;
  };
  expect_error("loss request 1.5\n", "line 1");
  expect_error("crash 5\n", "line 1");
  expect_error("\nfrobnicate 1 2\n", "line 2");
  expect_error("crash 5 30 extra\n", "line 1");
  expect_error("host-faults 300 0\n", "line 1");
  expect_error("loss telepathy 0.5\n", "line 1");
}

TEST(FaultPlanTest, EmptyDetection) {
  EXPECT_TRUE(fault::FaultPlan{}.Empty());
  EXPECT_TRUE(MustParse("loss request 0\nquiesce 100\n").Empty());
  EXPECT_FALSE(MustParse("host-faults 300 60\n").Empty());
  EXPECT_FALSE(MustParse("crash 0 10\n").Empty());
  EXPECT_FALSE(MustParse("delay request 0.5 10\n").Empty());
}

TEST(FaultPlanTest, PlanFitsGraphChecksHostsAndLinks) {
  const net::Graph graph = net::MakeUunetBackbone().graph();
  const auto fits = [&](const std::string& text, std::string* error) {
    error->clear();
    return fault::PlanFitsGraph(MustParse(text), graph, error);
  };
  std::string error;
  EXPECT_TRUE(fits("crash 52 20\nrecover 0 30\nhost-faults 300 60\n",
                   &error))
      << error;
  const net::Link& link = graph.link(0);
  EXPECT_TRUE(fits("link-down " + std::to_string(link.b) + " " +
                       std::to_string(link.a) + " 30\n",
                   &error))
      << error;

  EXPECT_FALSE(fits("crash 999 20\n", &error));
  EXPECT_EQ(error, "crash 999 20: the topology has no host 999 (53 nodes)");
  EXPECT_FALSE(fits("crash 1 10\nrecover 53 20.5\n", &error));
  EXPECT_EQ(error, "recover 53 20.5: the topology has no host 53 (53 nodes)");
  ASSERT_FALSE(graph.HasLink(0, 52));
  EXPECT_FALSE(fits("link-down 0 52 30\n", &error));
  EXPECT_EQ(error, "link-down 0 52 30: the topology has no link 0-52");
  EXPECT_FALSE(fits("link-up 0 999 30\n", &error));
  EXPECT_EQ(error, "link-up 0 999 30: the topology has no link 0-999");
}

// ---------------------------------------------------------------------
// Message-fate counters (two-node graph, injector driven directly)
// ---------------------------------------------------------------------

net::Graph TwoNodeGraph() {
  net::Graph graph(2);
  graph.AddLink(0, 1, SecondsToSim(0.01), 45e6);
  return graph;
}

TEST(FaultInjectorTest, CertainTransferLossRetriesThenAborts) {
  sim::Simulator sim;
  const net::Graph graph = TwoNodeGraph();
  fault::FaultInjector injector(MustParse("loss replicate 1\n"), graph, &sim,
                                /*seed=*/1, {});
  injector.Start();
  const core::RpcFate fate =
      injector.FateForCreateObj(1, core::CreateObjMethod::kReplicate);
  EXPECT_EQ(fate, core::RpcFate::kLost);
  // Initial send + kMaxTransferRetries resends all lost, then abort.
  EXPECT_EQ(injector.counters().transfer_messages_lost,
            fault::FaultInjector::kMaxTransferRetries + 1);
  EXPECT_EQ(injector.counters().transfer_retries,
            fault::FaultInjector::kMaxTransferRetries);
  EXPECT_EQ(injector.counters().aborted_relocations, 1);
}

TEST(FaultInjectorTest, CertainAckLossIsAcceptedAckLost) {
  sim::Simulator sim;
  const net::Graph graph = TwoNodeGraph();
  fault::FaultInjector injector(MustParse("loss ack 1\n"), graph, &sim,
                                /*seed=*/1, {});
  injector.Start();
  EXPECT_EQ(injector.FateForCreateObj(1, core::CreateObjMethod::kMigrate),
            core::RpcFate::kAcceptedAckLost);
  EXPECT_EQ(injector.counters().acks_lost, 1);
  EXPECT_EQ(injector.counters().aborted_relocations, 0);
}

TEST(FaultInjectorTest, RpcToCrashedHostIsLost) {
  sim::Simulator sim;
  const net::Graph graph = TwoNodeGraph();
  fault::FaultInjector injector(MustParse("crash 1 10\n"), graph, &sim,
                                /*seed=*/1, {});
  injector.Start();
  sim.RunUntil(SecondsToSim(20.0));
  EXPECT_FALSE(injector.HostUp(1));
  EXPECT_EQ(injector.FateForCreateObj(1, core::CreateObjMethod::kReplicate),
            core::RpcFate::kLost);
  EXPECT_EQ(injector.counters().rpcs_to_dead_hosts, 1);
  EXPECT_EQ(injector.live_hosts(), 1);
}

// ---------------------------------------------------------------------
// Driver integration
// ---------------------------------------------------------------------

driver::SimConfig ShortConfig() {
  driver::SimConfig config;
  config.duration = SecondsToSim(120.0);
  config.num_objects = 300;
  config.seed = 3;
  return config;
}

std::string DumpOf(driver::SimConfig config) {
  driver::HostingSimulation sim(std::move(config));
  return driver::ReportJson(sim.Run()).Dump(2);
}

TEST(FaultDriverTest, FaultFreeRunEmitsNoAvailabilityBlock) {
  driver::SimConfig config = ShortConfig();
  config.duration = SecondsToSim(60.0);
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  EXPECT_FALSE(report.faults_enabled);
  EXPECT_EQ(sim.fault_injector(), nullptr);
  const std::string dump = driver::ReportJson(report).Dump(2);
  EXPECT_EQ(dump.find("\"availability\""), std::string::npos);
}

TEST(FaultDriverTest, FloorOnlyRunIsDeterministicWithZeroedCounters) {
  driver::SimConfig config = ShortConfig();
  config.duration = SecondsToSim(60.0);
  config.replica_floor = 1;  // every object already starts at 1 replica
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  EXPECT_TRUE(report.faults_enabled);
  EXPECT_EQ(sim.fault_injector(), nullptr);  // plan is empty
  const driver::AvailabilityReport& a = report.availability;
  EXPECT_EQ(a.failed_requests, 0);
  EXPECT_EQ(a.host_crashes, 0);
  EXPECT_EQ(a.replicas_restored, 0);
  EXPECT_EQ(a.floor_violations, 0);
  EXPECT_EQ(a.unavailability_windows, 0);
  EXPECT_EQ(a.objects_lost, 0);
  const std::string dump = driver::ReportJson(report).Dump(2);
  EXPECT_NE(dump.find("\"availability\""), std::string::npos);
  EXPECT_EQ(dump, DumpOf(config));  // byte-reproducible
}

TEST(FaultDriverTest, ScriptedCrashOpensWindowsAndRecoveryClosesThem) {
  driver::SimConfig config = ShortConfig();
  config.faults = MustParse("crash 5 30\nrecover 5 60\n");
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const driver::AvailabilityReport& a = report.availability;
  EXPECT_EQ(a.host_crashes, 1);
  EXPECT_EQ(a.host_recoveries, 1);
  // Host 5 was the sole holder of some objects for 30 simulated seconds.
  EXPECT_GT(a.unavailability_windows, 0);
  EXPECT_GT(a.failed_requests, 0);
  EXPECT_NEAR(a.mean_time_to_repair_s, 30.0, 1.0);
  EXPECT_LE(a.max_time_to_repair_s, 30.5);
  EXPECT_EQ(a.objects_unavailable_at_end, 0);
  EXPECT_EQ(a.objects_lost, 0);
}

TEST(FaultDriverTest, AckLossNeverLosesObjects) {
  driver::SimConfig config = ShortConfig();
  config.faults = MustParse("loss ack 0.5\n");
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  // An ack lost after the copy was accepted leaves the platform with MORE
  // copies (source keeps its replica), never fewer.
  EXPECT_GT(report.availability.acks_lost, 0);
  EXPECT_EQ(report.availability.objects_lost, 0);
}

// A 4-node ring: any single link can fail without disconnecting it.
net::Topology RingTopology() {
  net::TopologyBuilder builder;
  for (int i = 0; i < 4; ++i) {
    builder.AddNode("n" + std::to_string(i),
                    net::Region::kWesternNorthAmerica);
  }
  const SimTime delay = SecondsToSim(0.01);
  builder.Link(0, 1, delay, 45e6);
  builder.Link(1, 2, delay, 45e6);
  builder.Link(2, 3, delay, 45e6);
  builder.Link(3, 0, delay, 45e6);
  return std::move(builder).Build();
}

TEST(FaultDriverTest, LinkDownRecomputesLatencyMatrix) {
  driver::SimConfig config;
  config.duration = SecondsToSim(30.0);
  config.num_objects = 40;
  config.seed = 2;
  config.faults = MustParse("link-down 0 1 10\n");
  driver::HostingSimulation sim(config, RingTopology());
  sim.StepUntil(SecondsToSim(20.0));

  // The in-force model must match one built from scratch on the
  // degraded graph (ring minus the 0-1 link).
  net::Graph degraded(4);
  const SimTime delay = SecondsToSim(0.01);
  degraded.AddLink(1, 2, delay, 45e6);
  degraded.AddLink(2, 3, delay, 45e6);
  degraded.AddLink(3, 0, delay, 45e6);
  const net::NetModel fresh(degraded, {0, 1, 2, 3}, config.object_bytes);
  const net::NetModel& live = sim.net_model();
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_EQ(live.Control(a, b), fresh.Control(a, b)) << a << "->" << b;
      EXPECT_EQ(live.Transfer(a, b), fresh.Transfer(a, b)) << a << "->" << b;
    }
  }
  ASSERT_NE(sim.fault_injector(), nullptr);
  EXPECT_EQ(sim.fault_injector()->counters().link_downs, 1);
  const driver::RunReport report = sim.Finalize();
  EXPECT_EQ(report.availability.objects_lost, 0);
}

TEST(FaultDriverTest, DisconnectingLinkDownIsSuppressed) {
  // A 3-node line: every link is a bridge, so the scripted fault must be
  // suppressed and routing left untouched.
  net::TopologyBuilder builder;
  for (int i = 0; i < 3; ++i) {
    builder.AddNode("n" + std::to_string(i),
                    net::Region::kWesternNorthAmerica);
  }
  const SimTime delay = SecondsToSim(0.01);
  builder.Link(0, 1, delay, 45e6);
  builder.Link(1, 2, delay, 45e6);

  driver::SimConfig config;
  config.duration = SecondsToSim(30.0);
  config.num_objects = 30;
  config.seed = 2;
  config.faults = MustParse("link-down 0 1 10\n");
  driver::HostingSimulation sim(config, std::move(builder).Build());
  const driver::RunReport report = sim.Run();
  EXPECT_EQ(report.availability.suppressed_link_faults, 1);
  EXPECT_EQ(report.availability.link_downs, 0);
  EXPECT_EQ(report.availability.objects_lost, 0);
}

TEST(FaultDriverTest, ReplicaFloorRestoredWithinOnePlacementInterval) {
  driver::SimConfig config = ShortConfig();
  config.num_objects = 200;
  config.replica_floor = 2;
  config.protocol.placement_interval = SecondsToSim(25.0);
  config.faults = MustParse("crash 3 40\nrecover 3 80\n");
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const driver::AvailabilityReport& a = report.availability;

  // The first repair pass (t=25s) lifts every object to 2 replicas, so
  // the crash at t=40s never strands a sole copy: no windows, and every
  // under-floor object is repaired at the next pass.
  EXPECT_GT(a.replicas_restored, 0);
  EXPECT_EQ(a.unavailability_windows, 0);
  EXPECT_EQ(a.floor_violations, 0);
  EXPECT_EQ(a.objects_unavailable_at_end, 0);
  EXPECT_EQ(a.objects_lost, 0);
  const auto& redirectors = sim.cluster().redirectors();
  for (ObjectId x = 0; x < config.num_objects; ++x) {
    EXPECT_GE(redirectors.For(x).ReplicaCount(x), 2) << "object " << x;
  }
}

TEST(FaultDriverTest, ChaoticRunIsByteReproducibleAndConserved) {
  driver::SimConfig config = ShortConfig();
  config.num_objects = 250;
  config.duration = SecondsToSim(180.0);
  config.replica_floor = 2;
  config.protocol.placement_interval = SecondsToSim(25.0);
  config.faults = MustParse(
      "host-faults 120 20\n"
      "link-faults 240 20\n"
      "loss request 0.02\n"
      "loss replicate 0.05\n"
      "loss migrate 0.05\n"
      "loss ack 0.05\n"
      "delay request 0.1 20\n"
      "quiesce 150\n");

  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const driver::AvailabilityReport& a = report.availability;
  EXPECT_GT(a.host_crashes, 0);
  EXPECT_EQ(a.host_crashes, a.host_recoveries);  // quiesce healed all
  EXPECT_EQ(a.link_downs, a.link_ups);
  EXPECT_EQ(a.objects_unavailable_at_end, 0);
  EXPECT_EQ(a.objects_lost, 0);
  ASSERT_NE(sim.fault_injector(), nullptr);
  EXPECT_TRUE(sim.fault_injector()->quiesced());
  EXPECT_EQ(sim.fault_injector()->live_hosts(), net::kUunetNodeCount);

  // Same plan + same seed => bit-identical report.
  EXPECT_EQ(driver::ReportJson(report).Dump(2), DumpOf(config));
}

}  // namespace
}  // namespace radar
