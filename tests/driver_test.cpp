// Unit tests for the driver layer: configuration, report arithmetic, and
// small end-to-end simulations of each policy combination.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "driver/hosting_simulation.h"
#include "net/routing.h"

namespace radar::driver {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.num_objects = 500;
  config.duration = SecondsToSim(300.0);
  config.seed = 7;
  config.workload = WorkloadKind::kZipf;
  return config;
}

TEST(SimConfigTest, DefaultsMatchTable1) {
  const SimConfig config;
  EXPECT_EQ(config.num_objects, 10000);
  EXPECT_EQ(config.object_bytes, 12 * 1024);
  EXPECT_DOUBLE_EQ(config.node_request_rate, 40.0);
  EXPECT_DOUBLE_EQ(config.server_capacity, 200.0);
  EXPECT_DOUBLE_EQ(config.protocol.high_watermark, 90.0);
  EXPECT_DOUBLE_EQ(config.protocol.low_watermark, 80.0);
  EXPECT_DOUBLE_EQ(config.protocol.deletion_threshold_u, 0.03);
  EXPECT_DOUBLE_EQ(config.protocol.replication_threshold_m, 0.18);
  EXPECT_EQ(config.protocol.placement_interval, SecondsToSim(100.0));
  EXPECT_EQ(config.protocol.measurement_interval, SecondsToSim(20.0));
  EXPECT_TRUE(config.protocol.IsStable());
}

TEST(SimConfigTest, HighLoadPreset) {
  SimConfig config;
  config.ApplyHighLoad();
  EXPECT_DOUBLE_EQ(config.protocol.high_watermark, 50.0);
  EXPECT_DOUBLE_EQ(config.protocol.low_watermark, 40.0);
  EXPECT_TRUE(config.protocol.IsStable());
}

TEST(ProtocolParamsTest, StabilityConditions) {
  core::ProtocolParams p;
  EXPECT_TRUE(p.IsStable());
  p.replication_threshold_m = 4.0 * p.deletion_threshold_u;  // not strict
  EXPECT_FALSE(p.IsStable());
  p = {};
  p.migr_ratio = 0.5;
  EXPECT_FALSE(p.IsStable());
  p = {};
  p.repl_ratio = 0.7;  // above migr_ratio
  EXPECT_FALSE(p.IsStable());
  p = {};
  p.low_watermark = p.high_watermark;
  EXPECT_FALSE(p.IsStable());
}

TEST(WorkloadKindTest, Names) {
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kZipf), "zipf");
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kHotSites), "hot-sites");
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kHotPages), "hot-pages");
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kRegional), "regional");
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kUniform), "uniform");
}

TEST(HostingSimulationTest, RedirectorAtMostCentralNode) {
  // The paper co-locates the redirector with the node of minimum total
  // (equivalently, mean) hop distance to all others; ties to the lower id.
  HostingSimulation sim(SmallConfig());
  const net::Graph& g = sim.topology().graph();
  net::ShortestPathTree tree;
  NodeId best = kInvalidNode;
  std::int64_t best_total = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    net::BuildShortestPathTree(g, n, nullptr, &tree);
    std::int64_t total = 0;
    for (const std::int32_t h : tree.hops) total += h;
    if (best == kInvalidNode || total < best_total) {
      best = n;
      best_total = total;
    }
  }
  EXPECT_EQ(sim.redirector_home(0), best);
}

TEST(HostingSimulationTest, RunProducesSaneReport) {
  HostingSimulation sim(SmallConfig());
  const RunReport report = sim.Run();
  EXPECT_EQ(report.workload_name, "zipf");
  EXPECT_EQ(report.distribution_name, "radar");
  EXPECT_EQ(report.placement_name, "radar");
  // 53 gateways x 40 req/s x 300 s = 636k generated; nearly all serviced.
  EXPECT_GT(report.total_requests, 600000);
  EXPECT_EQ(report.dropped_requests, 0);
  EXPECT_GT(report.traffic.total_payload(), 0);
  EXPECT_GT(report.final_avg_replicas, 1.0);
  EXPECT_GT(report.latency_stats.mean(), 0.0);
  EXPECT_GT(report.max_load.OverallMax(), 0.0);
}

TEST(HostingSimulationTest, DeterministicAcrossRuns) {
  const RunReport a = HostingSimulation(SmallConfig()).Run();
  const RunReport b = HostingSimulation(SmallConfig()).Run();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.traffic.total_payload(), b.traffic.total_payload());
  EXPECT_EQ(a.traffic.total_overhead(), b.traffic.total_overhead());
  EXPECT_EQ(a.object_copies, b.object_copies);
  EXPECT_DOUBLE_EQ(a.latency_stats.mean(), b.latency_stats.mean());
  EXPECT_DOUBLE_EQ(a.final_avg_replicas, b.final_avg_replicas);
}

TEST(HostingSimulationTest, SeedChangesOutcome) {
  SimConfig other = SmallConfig();
  other.seed = 99;
  const RunReport a = HostingSimulation(SmallConfig()).Run();
  const RunReport b = HostingSimulation(other).Run();
  EXPECT_NE(a.traffic.total_payload(), b.traffic.total_payload());
}

TEST(HostingSimulationTest, StaticPlacementNeverRelocates) {
  SimConfig config = SmallConfig();
  config.placement = baselines::PlacementPolicy::kStatic;
  const RunReport report = HostingSimulation(config).Run();
  EXPECT_EQ(report.TotalRelocations(), 0);
  EXPECT_EQ(report.object_copies, 0);
  EXPECT_EQ(report.traffic.total_overhead(), 0);
  EXPECT_DOUBLE_EQ(report.final_avg_replicas, 1.0);
}

TEST(HostingSimulationTest, FullReplicationWithClosestHasZeroBandwidth) {
  SimConfig config = SmallConfig();
  config.num_objects = 100;
  config.duration = SecondsToSim(60.0);
  config.placement = baselines::PlacementPolicy::kFullReplication;
  config.distribution = baselines::DistributionPolicy::kClosest;
  const RunReport report = HostingSimulation(config).Run();
  // Every gateway holds every object: responses never cross the backbone.
  EXPECT_EQ(report.traffic.total_payload(), 0);
  EXPECT_DOUBLE_EQ(report.final_avg_replicas, 53.0);
}

TEST(HostingSimulationTest, RoundRobinBaselineRuns) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(120.0);
  config.distribution = baselines::DistributionPolicy::kRoundRobin;
  const RunReport report = HostingSimulation(config).Run();
  EXPECT_EQ(report.distribution_name, "round-robin");
  EXPECT_GT(report.total_requests, 0);
}

TEST(HostingSimulationTest, PoissonArrivalsRun) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(120.0);
  config.arrivals = ArrivalProcess::kPoisson;
  const RunReport report = HostingSimulation(config).Run();
  // Poisson generation is rate-preserving in expectation.
  EXPECT_NEAR(static_cast<double>(report.total_requests), 53.0 * 40.0 * 120.0,
              53.0 * 40.0 * 120.0 * 0.05);
}

TEST(HostingSimulationTest, MultipleRedirectorsPartitionObjects) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(120.0);
  config.num_redirectors = 4;
  HostingSimulation sim(config);
  // All four homes are distinct nodes.
  std::set<NodeId> homes;
  for (int i = 0; i < 4; ++i) homes.insert(sim.redirector_home(i));
  EXPECT_EQ(homes.size(), 4u);
  const RunReport report = sim.Run();
  EXPECT_GT(report.total_requests, 0);
  EXPECT_EQ(report.dropped_requests, 0);
}

TEST(HostingSimulationTest, TrackedHostSamplesCollected) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(100.0);
  config.tracked_host = 5;
  const RunReport report = HostingSimulation(config).Run();
  // One sample per 20 s measurement tick.
  EXPECT_EQ(report.tracked_host_loads.size(), 5u);
  for (const auto& sample : report.tracked_host_loads) {
    EXPECT_GE(sample.upper_estimate, sample.measured);
    EXPECT_LE(sample.lower_estimate, sample.measured);
  }
}

TEST(HostingSimulationTest, CustomWorkloadOverridesConfig) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(60.0);
  HostingSimulation sim(config);
  sim.SetWorkload(std::make_unique<workload::UniformWorkload>(500));
  const RunReport report = sim.Run();
  EXPECT_EQ(report.workload_name, "uniform");
}

TEST(HostingSimulationTest, CustomTopologyAccepted) {
  net::TopologyBuilder b;
  b.AddNode("a", net::Region::kEurope);
  b.AddNode("b", net::Region::kEurope);
  b.AddNode("c", net::Region::kEasternNorthAmerica);
  b.Link(0, 1, MillisToSim(10.0), 350.0 * 1024.0);
  b.Link(1, 2, MillisToSim(10.0), 350.0 * 1024.0);
  SimConfig config;
  config.num_objects = 30;
  config.duration = SecondsToSim(60.0);
  config.workload = WorkloadKind::kUniform;
  HostingSimulation sim(config, std::move(b).Build());
  const RunReport report = sim.Run();
  EXPECT_GT(report.total_requests, 0);
  EXPECT_EQ(report.dropped_requests, 0);
}

TEST(HostingSimulationTest, LinkStatsMatchLedgerTotals) {
  SimConfig config = SmallConfig();
  config.duration = SecondsToSim(120.0);
  HostingSimulation sim(config);
  const RunReport report = sim.Run();
  // Every byte-hop charged to the traffic ledger traversed a link.
  EXPECT_EQ(sim.link_stats().total_byte_hops(),
            report.traffic.total_payload() + report.traffic.total_overhead());
  const auto [from, to] = sim.link_stats().BusiestHop();
  ASSERT_NE(from, kInvalidNode);
  EXPECT_TRUE(sim.topology().graph().HasLink(from, to));
  EXPECT_GT(sim.link_stats().BytesOnHop(from, to), 0);
}

TEST(RunReportTest, DerivedMetricsArithmetic) {
  RunReport report(SecondsToSim(10.0));
  // Payload: buckets of 1000, 1000, 500, 100 byte-hops (width 10 s).
  report.traffic.AddPayload(SecondsToSim(5.0), 1000);
  report.traffic.AddPayload(SecondsToSim(15.0), 1000);
  report.traffic.AddPayload(SecondsToSim(25.0), 500);
  report.traffic.AddPayload(SecondsToSim(35.0), 100);
  EXPECT_DOUBLE_EQ(report.InitialBandwidthRate(2), 100.0);
  EXPECT_DOUBLE_EQ(report.EquilibriumBandwidthRate(), 10.0);
  EXPECT_DOUBLE_EQ(report.BandwidthReductionPercent(), 90.0);
  // Latency buckets: 0.2, 0.2, 0.1, 0.1 s means.
  report.latency.Add(SecondsToSim(5.0), 0.2);
  report.latency.Add(SecondsToSim(15.0), 0.2);
  report.latency.Add(SecondsToSim(25.0), 0.1);
  report.latency.Add(SecondsToSim(35.0), 0.1);
  EXPECT_DOUBLE_EQ(report.InitialLatency(), 0.2);
  EXPECT_DOUBLE_EQ(report.EquilibriumLatency(), 0.1);
  EXPECT_NEAR(report.LatencyReductionPercent(), 50.0, 1e-9);
}

TEST(RunReportTest, PrintersProduceOutput) {
  RunReport report(SecondsToSim(10.0));
  report.workload_name = "zipf";
  report.distribution_name = "radar";
  report.placement_name = "radar";
  report.duration = SecondsToSim(100.0);
  report.traffic.AddPayload(SecondsToSim(5.0), 1000);
  report.latency.Add(SecondsToSim(5.0), 0.1);
  report.max_load.Add(SecondsToSim(5.0), 42.0);
  std::ostringstream summary;
  report.PrintSummary(summary);
  EXPECT_NE(summary.str().find("workload=zipf"), std::string::npos);
  std::ostringstream series;
  report.PrintSeries(series);
  EXPECT_NE(series.str().find("maxload"), std::string::npos);
}

TEST(SimConfigDeathTest, StructurallyInvalidConfigAborts) {
  SimConfig config;
  config.num_objects = 0;
  EXPECT_DEATH(HostingSimulation{config}, "RADAR_CHECK");
}

}  // namespace
}  // namespace radar::driver
