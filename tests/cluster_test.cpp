// Unit tests for Cluster: CreateObj RPC plumbing, redirector notification
// ordering, offload recipient discovery, replica caps, and the census.
#include <gtest/gtest.h>

#include "core/cluster.h"

namespace radar::core {
namespace {

constexpr std::int32_t kNodes = 6;

MatrixDistanceOracle LineOracle(std::int32_t n) {
  MatrixDistanceOracle oracle(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) oracle.Set(a, b, b - a);
  }
  return oracle;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : oracle_(LineOracle(kNodes)),
        cluster_(kNodes, oracle_, ProtocolParams{}, {0}) {}

  MatrixDistanceOracle oracle_;
  Cluster cluster_;
};

TEST_F(ClusterTest, InitialPlacementRegistersEverywhere) {
  cluster_.PlaceInitialObject(3, 2);
  EXPECT_TRUE(cluster_.host(2).HasObject(3));
  EXPECT_EQ(cluster_.redirectors().For(3).ReplicaCount(3), 1);
  EXPECT_EQ(cluster_.RouteRequest(3, 5), 2);
}

TEST_F(ClusterTest, CreateObjRpcMovesReplicaAndNotifiesRedirector) {
  cluster_.PlaceInitialObject(1, 0);
  const CreateObjResponse resp = cluster_.CreateObjRpc(
      0, 4, CreateObjMethod::kReplicate, 1, 0.5);
  EXPECT_TRUE(resp.accepted);
  EXPECT_TRUE(resp.created_new_copy);
  EXPECT_TRUE(cluster_.host(4).HasObject(1));
  EXPECT_EQ(cluster_.redirectors().For(1).ReplicaCount(1), 2);
  EXPECT_EQ(cluster_.total_transfers(), 1);
  EXPECT_EQ(cluster_.total_copies(), 1);
}

TEST_F(ClusterTest, AffinityIncrementIsNotACopy) {
  cluster_.PlaceInitialObject(1, 0);
  cluster_.CreateObjRpc(0, 4, CreateObjMethod::kReplicate, 1, 0.0);
  const CreateObjResponse resp = cluster_.CreateObjRpc(
      0, 4, CreateObjMethod::kReplicate, 1, 0.0);
  EXPECT_TRUE(resp.accepted);
  EXPECT_FALSE(resp.created_new_copy);
  EXPECT_EQ(cluster_.host(4).Affinity(1), 2);
  EXPECT_EQ(cluster_.total_transfers(), 2);
  EXPECT_EQ(cluster_.total_copies(), 1);
}

TEST_F(ClusterTest, TransferHookSeesEveryAcceptedTransfer) {
  cluster_.PlaceInitialObject(1, 0);
  struct Seen {
    NodeId from, to;
    ObjectId x;
    bool copied;
  };
  std::vector<Seen> seen;
  cluster_.set_transfer_hook([&](NodeId from, NodeId to, ObjectId x,
                                 CreateObjMethod, bool copied) {
    seen.push_back({from, to, x, copied});
  });
  cluster_.CreateObjRpc(0, 3, CreateObjMethod::kReplicate, 1, 0.0);
  cluster_.CreateObjRpc(0, 3, CreateObjMethod::kReplicate, 1, 0.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].to, 3);
  EXPECT_TRUE(seen[0].copied);
  EXPECT_FALSE(seen[1].copied);
}

TEST_F(ClusterTest, RefusedRpcLeavesNoTrace) {
  cluster_.PlaceInitialObject(1, 0);
  // Overload host 4 past the low watermark so it refuses.
  cluster_.host(4).AddInitialReplica(99);
  cluster_.redirectors().For(99).RegisterObject(99, 4);
  for (int i = 0; i < 2000; ++i) cluster_.host(4).RecordServiced(99, {4});
  cluster_.TickMeasurement(4, SecondsToSim(20.0));
  const CreateObjResponse resp = cluster_.CreateObjRpc(
      0, 4, CreateObjMethod::kReplicate, 1, 0.5);
  EXPECT_FALSE(resp.accepted);
  EXPECT_FALSE(cluster_.host(4).HasObject(1));
  EXPECT_EQ(cluster_.redirectors().For(1).ReplicaCount(1), 1);
  EXPECT_EQ(cluster_.total_transfers(), 0);
}

TEST_F(ClusterTest, ReplicaCapBlocksReplicationNotMigration) {
  cluster_.PlaceInitialObject(1, 0);
  cluster_.set_replica_cap([](ObjectId) { return 1; });  // migrate-only
  EXPECT_FALSE(
      cluster_.CreateObjRpc(0, 2, CreateObjMethod::kReplicate, 1, 0.0)
          .accepted);
  EXPECT_TRUE(
      cluster_.CreateObjRpc(0, 2, CreateObjMethod::kMigrate, 1, 0.0)
          .accepted);
}

TEST_F(ClusterTest, ReplicaCapAllowsAffinityIncrementOnHolder) {
  cluster_.PlaceInitialObject(1, 0);
  cluster_.set_replica_cap([](ObjectId) { return 1; });
  // Replicating onto the existing holder only raises affinity — the
  // physical replica count stays within the cap, so it is allowed.
  EXPECT_TRUE(
      cluster_.CreateObjRpc(3, 0, CreateObjMethod::kReplicate, 1, 0.0)
          .accepted);
  EXPECT_EQ(cluster_.redirectors().For(1).ReplicaCount(1), 1);
  EXPECT_EQ(cluster_.host(0).Affinity(1), 2);
}

TEST_F(ClusterTest, FindOffloadRecipientPicksLeastLoaded) {
  // Load host 1 at 50 req/s and host 2 at 10 req/s; others idle (0).
  for (const auto& [node, requests] :
       std::vector<std::pair<NodeId, int>>{{1, 1000}, {2, 200}}) {
    cluster_.host(node).AddInitialReplica(90 + node);
    cluster_.redirectors().For(90 + node).RegisterObject(90 + node, node);
    for (int i = 0; i < requests; ++i) {
      cluster_.host(node).RecordServiced(90 + node, {node});
    }
    cluster_.TickMeasurement(node, SecondsToSim(20.0));
  }
  // Ties at 0 among {0, 3, 4, 5} minus self: lowest id wins.
  EXPECT_EQ(cluster_.FindOffloadRecipient(0), 3);
  EXPECT_EQ(cluster_.FindOffloadRecipient(3), 0);
}

TEST_F(ClusterTest, FindOffloadRecipientNoneWhenAllAboveLw) {
  for (NodeId n = 0; n < kNodes; ++n) {
    cluster_.host(n).AddInitialReplica(90 + n);
    cluster_.redirectors().For(90 + n).RegisterObject(90 + n, n);
    for (int i = 0; i < 1700; ++i) {
      cluster_.host(n).RecordServiced(90 + n, {n});
    }
    cluster_.TickMeasurement(n, SecondsToSim(20.0));
  }
  EXPECT_EQ(cluster_.FindOffloadRecipient(0), kInvalidNode);
}

TEST_F(ClusterTest, ReportedLoadIsAdmissionEstimate) {
  cluster_.PlaceInitialObject(7, 0);
  cluster_.CreateObjRpc(0, 2, CreateObjMethod::kMigrate, 7, 3.0);
  EXPECT_DOUBLE_EQ(cluster_.ReportedLoad(2), 12.0);
}

TEST_F(ClusterTest, AverageReplicasPerObject) {
  cluster_.PlaceInitialObject(0, 0);
  cluster_.PlaceInitialObject(1, 1);
  cluster_.CreateObjRpc(0, 3, CreateObjMethod::kReplicate, 0, 0.0);
  EXPECT_DOUBLE_EQ(cluster_.AverageReplicasPerObject(), 1.5);
}

TEST_F(ClusterTest, SubsetInvariantHoldsAfterRelocations) {
  for (ObjectId x = 0; x < 20; ++x) {
    cluster_.PlaceInitialObject(x, x % kNodes);
  }
  cluster_.CreateObjRpc(0, 3, CreateObjMethod::kReplicate, 0, 0.0);
  cluster_.CreateObjRpc(1, 4, CreateObjMethod::kMigrate, 1, 0.0);
  cluster_.CheckRedirectorSubsetInvariant();  // must not abort
}

TEST_F(ClusterTest, DistanceDelegatesToOracle) {
  EXPECT_EQ(cluster_.Distance(0, 5), 5);
  EXPECT_EQ(cluster_.Distance(2, 2), 0);
}

TEST_F(ClusterTest, EndToEndMigrationViaPlacement) {
  // Place an object at 0, service it exclusively through node 5's paths,
  // run node 0's placement, and watch the object land on node 5.
  cluster_.PlaceInitialObject(1, 0);
  for (int i = 0; i < 100; ++i) {
    cluster_.host(0).RecordServiced(1, {0, 3, 5});
  }
  const PlacementStats stats =
      cluster_.RunPlacement(0, SecondsToSim(100.0));
  EXPECT_EQ(stats.geo_migrations, 1);
  EXPECT_FALSE(cluster_.host(0).HasObject(1));
  EXPECT_TRUE(cluster_.host(5).HasObject(1));
  EXPECT_EQ(cluster_.RouteRequest(1, 0), 5);
  cluster_.CheckRedirectorSubsetInvariant();
}

TEST(ClusterReplicaFloorTest, OffloadMigrationKeepsCopyWhenFloorRefusesDrop) {
  // Replica floor 2: object 0 lives on both hosts, so the redirector refuses
  // any drop of it. Host 0 runs hot on object 1 and offloads to host 1;
  // object 0 ranks first and is load-migrated there. Host 1 already holds
  // it, so accepting only raises its affinity, and the floor then refuses
  // host 0's drop — both copies live on, as after a geo-migration whose
  // drop is refused.
  MatrixDistanceOracle oracle(2);
  oracle.Set(0, 1, 1);
  Cluster cluster(2, oracle, ProtocolParams{}, {0});
  cluster.redirectors().At(0).set_min_replicas(2);
  cluster.PlaceInitialObject(0, 0);
  ASSERT_TRUE(
      cluster.CreateObjRpc(0, 1, CreateObjMethod::kReplicate, 0, 0.0)
          .accepted);
  cluster.PlaceInitialObject(1, 0);
  for (int i = 0; i < 200 * 20; ++i) cluster.host(0).RecordServiced(1, {0});
  cluster.TickMeasurement(0, SecondsToSim(20.0));  // 200 req/s > hw

  const PlacementStats stats = cluster.RunPlacement(0, SecondsToSim(100.0));
  EXPECT_TRUE(stats.ran_offload);
  EXPECT_EQ(stats.affinity_drops, 0);  // the floor refused the cold drop
  EXPECT_EQ(stats.offload_migrations, 1);
  EXPECT_EQ(stats.offload_replications, 1);
  EXPECT_TRUE(cluster.host(0).HasObject(0));
  EXPECT_EQ(cluster.host(1).Affinity(0), 2);
  EXPECT_EQ(cluster.redirectors().For(0).ReplicaCount(0), 2);
  EXPECT_EQ(cluster.redirectors().For(0).AffinityOf(0, 1), 2);
  cluster.CheckRedirectorSubsetInvariant();
}

TEST(ClusterDeathTest, SelfRpcAborts) {
  MatrixDistanceOracle oracle(2);
  Cluster cluster(2, oracle, ProtocolParams{}, {0});
  cluster.PlaceInitialObject(1, 0);
  EXPECT_DEATH(
      cluster.CreateObjRpc(0, 0, CreateObjMethod::kReplicate, 1, 0.0),
      "RADAR_CHECK");
}

}  // namespace
}  // namespace radar::core
