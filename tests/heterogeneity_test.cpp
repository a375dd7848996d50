// Tests for the paper's extensions: heterogeneous host weights (Sec. 2)
// and the storage component of the vector load metric (Sec. 2.1).
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/host_agent.h"
#include "driver/hosting_simulation.h"
#include "fake_context.h"
#include "test_config.h"

namespace radar::core {
namespace {

ProtocolParams TestParams() { return ProtocolParams{}; }

TEST(WeightedHostTest, DefaultWeightIsOne) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  EXPECT_DOUBLE_EQ(agent.weight(), 1.0);
}

TEST(WeightedHostTest, HeavierHostAcceptsProportionallyMore) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  agent.set_weight(2.0);
  // lw = 80: a weight-2 host refuses only above 160 absolute load.
  agent.AddInitialReplica(1);
  for (int i = 0; i < 2400; ++i) agent.RecordServiced(1, {0});  // 120 req/s
  agent.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_TRUE(agent
                  .HandleCreateObj(CreateObjMethod::kReplicate, 9, 1.0,
                                   SecondsToSim(21.0))
                  .accepted);
  // The same load refuses at weight 1.
  HostAgent uniform(0, 4, &params);
  uniform.AddInitialReplica(1);
  for (int i = 0; i < 2400; ++i) uniform.RecordServiced(1, {0});
  uniform.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_FALSE(uniform
                   .HandleCreateObj(CreateObjMethod::kReplicate, 9, 1.0,
                                    SecondsToSim(21.0))
                   .accepted);
}

TEST(WeightedHostTest, MigrationBoundUsesNormalizedLoad) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  agent.set_weight(2.0);
  // Upper bound after migration: (0 + 4*40)/2 = 80 < hw=90 -> accept;
  // a weight-1 host would see 160 > 90 and refuse.
  EXPECT_TRUE(agent
                  .HandleCreateObj(CreateObjMethod::kMigrate, 9, 40.0, 0)
                  .accepted);
  HostAgent uniform(1, 4, &params);
  EXPECT_FALSE(uniform
                   .HandleCreateObj(CreateObjMethod::kMigrate, 9, 40.0, 0)
                   .accepted);
}

TEST(WeightedHostTest, OffloadModeUsesNormalizedLoad) {
  ProtocolParams params = TestParams();
  testing::FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.set_weight(2.0);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  // 120 req/s absolute = 60 normalized < hw -> not offloading.
  for (int i = 0; i < 2400; ++i) agent.RecordServiced(1, {0});
  agent.OnMeasurementTick(SecondsToSim(20.0));
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  EXPECT_FALSE(stats.offloading_mode);
}

TEST(WeightedHostTest, ClusterReportsNormalizedLoadAndPrefersHeavyHosts) {
  MatrixDistanceOracle oracle(3);
  Cluster cluster(3, oracle, TestParams(), {0});
  cluster.host(2).set_weight(4.0);
  // Both hosts 1 and 2 carry 100 req/s absolute.
  for (const NodeId n : {1, 2}) {
    cluster.PlaceInitialObject(90 + n, n);
    for (int i = 0; i < 2000; ++i) {
      cluster.host(n).RecordServiced(90 + n, {n});
    }
    cluster.TickMeasurement(n, SecondsToSim(20.0));
  }
  EXPECT_DOUBLE_EQ(cluster.ReportedLoad(1), 100.0);
  EXPECT_DOUBLE_EQ(cluster.ReportedLoad(2), 25.0);
  EXPECT_DOUBLE_EQ(cluster.HostWeight(2), 4.0);
  // Host 0 (idle) beats both; among loaded hosts 2 is preferred.
  EXPECT_EQ(cluster.FindOffloadRecipient(1), 0);
  // With 0 also loaded, the weighted host wins.
  cluster.PlaceInitialObject(90, 0);
  for (int i = 0; i < 2000; ++i) cluster.host(0).RecordServiced(90, {0});
  cluster.TickMeasurement(0, SecondsToSim(20.0));
  EXPECT_EQ(cluster.FindOffloadRecipient(1), 2);
}

TEST(StorageTest, UnlimitedByDefault) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  EXPECT_EQ(agent.storage_capacity(), 0);
  EXPECT_FALSE(agent.StorageFull());
}

TEST(StorageTest, FullHostRefusesNewCopies) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  agent.set_storage_capacity(2);
  EXPECT_TRUE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0, 0)
                  .accepted);
  EXPECT_TRUE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 2, 0.0, 0)
                  .accepted);
  EXPECT_TRUE(agent.StorageFull());
  EXPECT_FALSE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 3, 0.0, 0)
                   .accepted);
  EXPECT_FALSE(agent.HandleCreateObj(CreateObjMethod::kMigrate, 3, 0.0, 0)
                   .accepted);
}

TEST(StorageTest, AffinityIncrementNeedsNoStorage) {
  ProtocolParams params = TestParams();
  HostAgent agent(0, 4, &params);
  agent.set_storage_capacity(1);
  EXPECT_TRUE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0, 0)
                  .accepted);
  // Full, but the replica it already stores can still gain affinity.
  EXPECT_TRUE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0, 0)
                  .accepted);
  EXPECT_EQ(agent.Affinity(1), 2);
}

TEST(StorageTest, DropFreesStorage) {
  ProtocolParams params = TestParams();
  testing::FakeContext ctx(4);
  HostAgent agent(0, 4, &params);
  agent.set_storage_capacity(1);
  agent.AddInitialReplica(1);
  ctx.redirector.RegisterObject(1, 0);
  ctx.redirector.OnReplicaCreated(1, 3);  // second replica elsewhere
  EXPECT_TRUE(agent.StorageFull());
  // The cold object is dropped at the next placement round...
  const PlacementStats stats = ctx.RunPlacement(agent, SecondsToSim(100.0));
  EXPECT_EQ(stats.affinity_drops, 1);
  EXPECT_FALSE(agent.StorageFull());
  // ...and the slot is usable again.
  EXPECT_TRUE(agent.HandleCreateObj(CreateObjMethod::kReplicate, 7, 0.0, 0)
                  .accepted);
}

}  // namespace
}  // namespace radar::core

namespace radar::driver {
namespace {

TEST(HeterogeneousSimulationTest, WeightedPlatformAbsorbsMoreAtBigHosts) {
  // Give one node 4x the capacity and weight: under a zipf workload the
  // big host should end up carrying more absolute load than hw while
  // staying within its normalized watermarks, and the run stays healthy.
  SimConfig config = testing::ScaledPaperConfig();
  config.duration = SecondsToSim(1200.0);
  config.workload = WorkloadKind::kZipf;
  config.seed = 9;
  config.host_weight = [](NodeId n) { return n == 13 ? 4.0 : 1.0; };
  HostingSimulation sim(config);
  const RunReport report = sim.Run();
  EXPECT_EQ(report.dropped_requests, 0);
  EXPECT_LT(report.EquilibriumLatency(), 2.0);
  sim.cluster().CheckRedirectorSubsetInvariant();
}

TEST(HeterogeneousSimulationTest, StorageCapsHoldUnderSimulation) {
  SimConfig config = testing::ScaledPaperConfig();
  config.duration = SecondsToSim(900.0);
  config.workload = WorkloadKind::kHotPages;
  config.seed = 9;
  // Everyone can hold at most 40 objects beyond... capacity counts all
  // records; initial placement gives ~19 objects per host.
  config.host_storage = [](NodeId) { return std::int64_t{40}; };
  HostingSimulation sim(config);
  const RunReport report = sim.Run();
  (void)report;
  for (NodeId n = 0; n < sim.topology().num_nodes(); ++n) {
    EXPECT_LE(sim.cluster().host(n).NumObjects(), 40u) << "host " << n;
  }
}

}  // namespace
}  // namespace radar::driver
