// Edge cases and failure-injection tests across modules: boundary values
// of the protocol parameters, degenerate topologies and replica sets, and
// races the driver must tolerate.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "driver/hosting_simulation.h"
#include "fake_context.h"
#include "test_config.h"

namespace radar::core {
namespace {

using testing::FakeContext;

MatrixDistanceOracle LineOracle(std::int32_t n) {
  MatrixDistanceOracle oracle(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) oracle.Set(a, b, b - a);
  }
  return oracle;
}

TEST(EdgeCaseTest, ZeroDemandPlacementRoundIsInert) {
  ProtocolParams params;
  FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  // No requests at all: unit rate 0 < u, but the sole replica is
  // protected; nothing else may happen.
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  EXPECT_EQ(stats.TotalRelocations(), 0);
  EXPECT_TRUE(agent.HasObject(1));
  EXPECT_TRUE(ctx.calls.empty());
}

TEST(EdgeCaseTest, PlacementAtEpochStartIsSkipped) {
  // EpochSeconds == 0: rates are undefined; the round must not divide by
  // zero or take action.
  ProtocolParams params;
  FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  const PlacementStats stats = ctx.RunPlacement(agent, 0);
  EXPECT_EQ(stats.TotalRelocations(), 0);
}

TEST(EdgeCaseTest, DeletionThresholdZeroNeverDrops) {
  ProtocolParams params;
  params.deletion_threshold_u = 0.0;  // structural: allowed, disables drops
  FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  ctx.redirector.OnReplicaCreated(1, 3);
  agent.RecordServiced(1, {0});  // tiny but nonzero rate
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  EXPECT_EQ(stats.affinity_drops, 0);
}

TEST(EdgeCaseTest, MigrRatioOneDisablesMigration) {
  ProtocolParams params;
  params.migr_ratio = 1.0;  // a node can never *exceed* every path
  FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  for (int i = 0; i < 1000; ++i) agent.RecordServiced(1, {0, 3});
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  EXPECT_EQ(stats.geo_migrations, 0);
  // Replication still proceeds (fraction 1.0 > repl_ratio).
  EXPECT_EQ(stats.geo_replications, 1);
}

TEST(EdgeCaseTest, TwoHostClusterKeepsLastReplicaAlive) {
  // Aggressive deletion thresholds cannot orphan an object even when both
  // hosts try to shed it in the same round.
  MatrixDistanceOracle oracle = LineOracle(2);
  ProtocolParams params;
  params.deletion_threshold_u = 1000.0;  // everything is "cold"
  params.replication_threshold_m = 4001.0 * params.deletion_threshold_u;
  Cluster cluster(2, oracle, params, {0});
  cluster.PlaceInitialObject(1, 0);
  cluster.CreateObjRpc(0, 1, CreateObjMethod::kReplicate, 1, 0.0);
  for (int i = 0; i < 10; ++i) {
    cluster.host(0).RecordServiced(1, {0});
    cluster.host(1).RecordServiced(1, {1});
  }
  cluster.RunPlacement(0, SecondsToSim(100.0));
  cluster.RunPlacement(1, SecondsToSim(100.0));
  EXPECT_EQ(cluster.redirectors().For(1).ReplicaCount(1), 1);
  cluster.CheckRedirectorSubsetInvariant();
}

TEST(EdgeCaseTest, OffloadRecipientEqualToBestCandidateStillWorks) {
  // The offload recipient may coincide with a geo candidate; the host
  // must not double-shed or corrupt its affinity bookkeeping.
  ProtocolParams params;
  FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  for (ObjectId x = 1; x <= 3; ++x) {
    agent.AddInitialReplica(x);
    ctx.redirector.RegisterObject(x, 0);
  }
  for (int i = 0; i < 700; ++i) {
    agent.RecordServiced(1, {0, 2});
    agent.RecordServiced(2, {0});
    agent.RecordServiced(3, {0});
  }
  agent.OnMeasurementTick(SecondsToSim(20.0));  // 105 req/s > hw
  ctx.offload_recipient = 2;
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  // Object 1 geo-migrates to 2 (fraction 1.0); offload then also sheds
  // toward 2 until the recipient bound fills.
  EXPECT_EQ(stats.geo_migrations, 1);
  EXPECT_FALSE(agent.HasObject(1));
  for (ObjectId x = 1; x <= 3; ++x) {
    EXPECT_EQ(ctx.redirector.TotalAffinity(x),
              ctx.redirector.AffinityOf(x, 0) +
                  ctx.redirector.AffinityOf(x, 2) +
                  ctx.redirector.AffinityOf(x, 3));
  }
}

TEST(EdgeCaseTest, RedirectorSingleNodePlatform) {
  MatrixDistanceOracle oracle(1);
  Redirector redirector(oracle, 2.0);
  redirector.RegisterObject(1, 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(redirector.ChooseReplica(1, 0), 0);
  }
  EXPECT_FALSE(redirector.RequestDrop(1, 0));
}

TEST(EdgeCaseTest, DistributionConstantBelowOneDegeneratesToRoundRobin) {
  // For c < 1 the spill condition unitcnt(closest)/c > min is satisfied
  // as soon as counts are equal, so the algorithm always picks the least
  // counted replica — proximity-blind round-robin. Pathological (the
  // paper requires c > 1), but it must stay well-defined and balanced.
  MatrixDistanceOracle oracle = LineOracle(3);
  Redirector redirector(oracle, 0.5);
  redirector.RegisterObject(1, 0);
  redirector.OnReplicaCreated(1, 2);
  int near = 0;
  for (int i = 0; i < 1000; ++i) {
    if (redirector.ChooseReplica(1, 0) == 0) ++near;
  }
  EXPECT_NEAR(near / 1000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace radar::core

namespace radar::driver {
namespace {

TEST(EdgeCaseSimTest, SingleObjectPlatform) {
  SimConfig config;
  config.num_objects = 1;
  config.duration = SecondsToSim(300.0);
  config.workload = WorkloadKind::kUniform;
  const RunReport report = HostingSimulation(config).Run();
  EXPECT_GT(report.total_requests, 0);
  EXPECT_EQ(report.dropped_requests, 0);
}

TEST(EdgeCaseSimTest, SubSecondRunProducesEmptyButValidReport) {
  SimConfig config;
  config.num_objects = 10;
  config.duration = MillisToSim(1.0);
  const RunReport report = HostingSimulation(config).Run();
  EXPECT_EQ(report.dropped_requests, 0);
  EXPECT_GE(report.total_requests, 0);
  EXPECT_DOUBLE_EQ(report.BandwidthReductionPercent(), 0.0);
}

TEST(EdgeCaseSimTest, PlacementIntervalLongerThanRunMeansStatic) {
  SimConfig config = testing::ScaledPaperConfig();
  config.duration = SecondsToSim(300.0);
  config.protocol.placement_interval = SecondsToSim(10'000.0);
  const RunReport report = HostingSimulation(config).Run();
  EXPECT_EQ(report.TotalRelocations(), 0);
  EXPECT_DOUBLE_EQ(report.final_avg_replicas, 1.0);
}

TEST(EdgeCaseSimTest, UnstableThresholdsStillServeEveryRequest) {
  // Deliberately violating 4u < m causes churn, never lost requests or a
  // broken redirector table.
  SimConfig config = testing::ScaledPaperConfig();
  config.duration = SecondsToSim(600.0);
  config.workload = WorkloadKind::kHotPages;
  config.protocol.replication_threshold_m =
      2.0 * config.protocol.deletion_threshold_u;
  ASSERT_FALSE(config.protocol.IsStable());
  HostingSimulation sim(config);
  const RunReport report = sim.Run();
  EXPECT_EQ(report.dropped_requests, 0);
  sim.cluster().CheckRedirectorSubsetInvariant();
}

}  // namespace
}  // namespace radar::driver
