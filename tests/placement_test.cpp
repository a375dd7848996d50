// Unit tests for the replica placement algorithm (Fig. 3) and host
// offloading (Fig. 5), driven through a scriptable context.
#include <gtest/gtest.h>

#include "core/host_agent.h"
#include "fake_context.h"

namespace radar::core {
namespace {

using testing::FakeContext;

constexpr SimTime kRound = SecondsToSim(100.0);

// Line distances on 8 nodes: |a - b| hops.
void FillLineDistances(MatrixDistanceOracle& oracle, std::int32_t n) {
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) oracle.Set(a, b, b - a);
  }
}

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : ctx_(8), agent_(0, 8, &params_) {
    FillLineDistances(ctx_.oracle, 8);
  }

  /// Services `count` requests for x along `path`.
  void Service(ObjectId x, const std::vector<NodeId>& path, int count) {
    for (int i = 0; i < count; ++i) agent_.RecordServiced(x, path);
  }

  /// Installs an object on the agent and registers it at the redirector.
  void Install(ObjectId x) {
    agent_.AddInitialReplica(x);
    ctx_.redirector.RegisterObject(x, 0);
  }

  ProtocolParams params_;
  FakeContext ctx_;
  HostAgent agent_;
};

TEST_F(PlacementTest, ColdAffinityUnitIsDropped) {
  Install(1);
  // Give the object a second replica elsewhere so the drop can be granted.
  ctx_.redirector.OnReplicaCreated(1, 5);
  // 1 request in 100 s = 0.01 req/s < u = 0.03 -> drop.
  Service(1, {0}, 1);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.affinity_drops, 1);
  EXPECT_FALSE(agent_.HasObject(1));
  EXPECT_EQ(ctx_.redirector.ReplicaCount(1), 1);
}

TEST_F(PlacementTest, LastReplicaSurvivesDeletionThreshold) {
  Install(1);
  Service(1, {0}, 1);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.affinity_drops, 0);
  EXPECT_TRUE(agent_.HasObject(1));
}

TEST_F(PlacementTest, AffinityAboveOneReducedNotDropped) {
  Install(1);
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0, 0)
                  .accepted);
  ctx_.redirector.OnReplicaCreated(1, 0);  // affinity 2 at the redirector
  Service(1, {0}, 1);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.affinity_drops, 1);
  EXPECT_TRUE(agent_.HasObject(1));
  EXPECT_EQ(agent_.Affinity(1), 1);
  EXPECT_EQ(ctx_.redirector.AffinityOf(1, 0), 1);
}

TEST_F(PlacementTest, GeoMigrationToQualifyingCandidate) {
  Install(1);
  // 70 of 100 requests pass through node 3 (> MIGR_RATIO = 0.6).
  Service(1, {0, 3, 5}, 70);
  Service(1, {0}, 30);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 1);
  ASSERT_EQ(ctx_.calls.size(), 1u);
  // Node 5 also has 70% but is farther -> preferred over node 3.
  EXPECT_EQ(ctx_.calls[0].to, 5);
  EXPECT_EQ(ctx_.calls[0].method, CreateObjMethod::kMigrate);
  EXPECT_FALSE(agent_.HasObject(1));  // migrated away
  EXPECT_EQ(ctx_.redirector.ReplicaCount(1), 1);
  EXPECT_EQ(ctx_.redirector.ReplicaHosts(1), (std::vector<NodeId>{5}));
}

TEST_F(PlacementTest, NoMigrationBelowMigrRatio) {
  Install(1);
  // 55% through node 5: below the 60% threshold.
  Service(1, {0, 5}, 55);
  Service(1, {0}, 45);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 0);
  EXPECT_TRUE(agent_.HasObject(1));
}

TEST_F(PlacementTest, MigrationFallsBackToNextCandidateOnRefusal) {
  Install(1);
  Service(1, {0, 3, 5}, 100);
  ctx_.accept_all = false;
  ctx_.accepting = {3};  // farthest (5) refuses, next (3) accepts
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 1);
  ASSERT_EQ(ctx_.calls.size(), 2u);
  EXPECT_EQ(ctx_.calls[0].to, 5);
  EXPECT_EQ(ctx_.calls[1].to, 3);
  EXPECT_EQ(ctx_.redirector.ReplicaHosts(1), (std::vector<NodeId>{3}));
}

TEST_F(PlacementTest, GeoReplicationAboveThreshold) {
  Install(1);
  // Unit access rate: 100 req / 100 s = 1 req/s > m = 0.18. Node 4 appears
  // on 30% of paths (> REPL_RATIO = 1/6) but below MIGR_RATIO.
  Service(1, {0, 4}, 30);
  Service(1, {0}, 70);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 0);
  EXPECT_EQ(stats.geo_replications, 1);
  ASSERT_EQ(ctx_.calls.size(), 1u);
  EXPECT_EQ(ctx_.calls[0].method, CreateObjMethod::kReplicate);
  EXPECT_EQ(ctx_.calls[0].to, 4);
  EXPECT_TRUE(agent_.HasObject(1));  // source keeps its replica
  EXPECT_EQ(ctx_.redirector.ReplicaCount(1), 2);
}

TEST_F(PlacementTest, NoReplicationBelowAccessThreshold) {
  Install(1);
  // 15 req / 100 s = 0.15 req/s < m = 0.18; node 4 fraction 33% though.
  Service(1, {0, 4}, 5);
  Service(1, {0}, 10);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_replications, 0);
}

TEST_F(PlacementTest, NoReplicationWithoutQualifyingCandidate) {
  Install(1);
  // Hot object but every foreign node below 1/6 of paths.
  Service(1, {0, 2}, 10);
  Service(1, {0, 3}, 10);
  Service(1, {0}, 80);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_replications, 0);
}

TEST_F(PlacementTest, MigratedObjectIsNotAlsoReplicated) {
  Install(1);
  // Qualifies for both migration (70%) and replication (hot).
  Service(1, {0, 5}, 700);
  Service(1, {0}, 300);
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 1);
  EXPECT_EQ(stats.geo_replications, 0);
}

TEST_F(PlacementTest, ReplicationPrefersFarthestQualifier) {
  Install(1);
  Service(1, {0, 2, 6}, 30);  // both 2 and 6 at 30%
  Service(1, {0}, 70);
  ctx_.RunPlacement(agent_, kRound);
  ASSERT_FALSE(ctx_.calls.empty());
  EXPECT_EQ(ctx_.calls[0].to, 6);
}

TEST_F(PlacementTest, AccessCountsResetAfterRound) {
  Install(1);
  Service(1, {0, 4}, 50);
  ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(agent_.AccessCount(1, 0), 0u);
  EXPECT_EQ(agent_.AccessCount(1, 4), 0u);
}

TEST_F(PlacementTest, SecondEpochJudgedOnFreshCounts) {
  Install(1);
  Service(1, {0, 5}, 100);
  ctx_.accept_all = false;  // first round: migration refused everywhere
  EXPECT_EQ(ctx_.RunPlacement(agent_, kRound).geo_migrations, 0);
  ctx_.accept_all = true;
  // Second epoch: only local traffic -> no candidate, no migration.
  Service(1, {0}, 100);
  const PlacementStats stats =
      ctx_.RunPlacement(agent_, 2 * kRound);
  EXPECT_EQ(stats.geo_migrations, 0);
  EXPECT_TRUE(agent_.HasObject(1));
}

TEST_F(PlacementTest, OffloadingModeEntersAboveHighWatermark) {
  Install(1);
  Service(1, {0}, 2000);
  agent_.OnMeasurementTick(SecondsToSim(20.0));  // 100 req/s > hw
  ctx_.offload_recipient = 7;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(stats.offloading_mode);
}

TEST_F(PlacementTest, OffloadingModePersistsUntilBelowLowWatermark) {
  Install(1);
  Service(1, {0}, 2000);
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ctx_.offload_recipient = kInvalidNode;  // nothing to shed to
  ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(agent_.offloading());
  // Load falls to 85 (between lw=80 and hw=90): still offloading.
  Service(1, {0}, 1700);
  agent_.OnMeasurementTick(SecondsToSim(40.0));
  ctx_.RunPlacement(agent_, 2 * kRound);
  EXPECT_TRUE(agent_.offloading());
  // Load falls below lw: mode exits.
  Service(1, {0}, 100);
  agent_.OnMeasurementTick(SecondsToSim(60.0));
  ctx_.RunPlacement(agent_, 3 * kRound);
  EXPECT_FALSE(agent_.offloading());
}

TEST_F(PlacementTest, OffloadSkippedWhenGeoPassShedEnough) {
  // A geo-migration whose Theorem 3 bound already brings the lower load
  // estimate below lw makes the offload pass unnecessary.
  Install(1);  // 30 req/s, purely local -> no geo action
  Install(2);  // 70 req/s, 100% through node 6 -> geo-migrates
  Service(1, {0}, 600);
  Service(2, {0, 6}, 1400);
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ASSERT_GT(agent_.measured_load(), params_.high_watermark);
  ctx_.offload_recipient = 7;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 1);
  EXPECT_FALSE(stats.ran_offload);
  // The migration's full decrease bound was debited from the estimate.
  EXPECT_LT(agent_.OffloadLoad(), params_.low_watermark);
}

TEST_F(PlacementTest, OffloadComplementsInsufficientGeoPass) {
  // When geo actions happen but their bounds cannot account for enough
  // load relief, the offloading host still sheds to a recipient — the
  // mode "continues in this manner until its load drops below lw".
  Install(1);  // 100 req/s, purely local
  Install(2);  // 5 req/s, geo-migrates (fraction 1.0 via node 6)
  Service(1, {0}, 2000);
  Service(2, {0, 6}, 100);
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ctx_.offload_recipient = 7;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.geo_migrations, 1);
  EXPECT_TRUE(stats.ran_offload);
  EXPECT_GT(stats.offload_replications, 0);
}

TEST_F(PlacementTest, OffloadReplicatesHotAndMigratesColdObjects) {
  Install(1);  // hot: unit rate 20 req/s > m
  Install(2);  // modest: 0.1 req/s in (u, m]
  Service(1, {0}, 2000);
  // Keep object 2's foreign fraction at 0.5 — below MIGR_RATIO, so it is
  // not geo-migrated, but it still ranks first for offloading.
  Service(2, {0, 3}, 5);
  Service(2, {0}, 5);
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ASSERT_GT(agent_.measured_load(), params_.high_watermark);
  ctx_.offload_recipient = 7;
  ctx_.reported_load = 10.0;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(stats.ran_offload);
  // Object 2 has the higher foreign fraction -> examined first, migrated
  // (unit rate <= m). Object 1 replicated (unit rate > m).
  EXPECT_EQ(stats.offload_migrations, 1);
  EXPECT_EQ(stats.offload_replications, 1);
  EXPECT_FALSE(agent_.HasObject(2));
  EXPECT_TRUE(agent_.HasObject(1));
  ASSERT_EQ(ctx_.calls.size(), 2u);
  EXPECT_EQ(ctx_.calls[0].x, 2);
  EXPECT_EQ(ctx_.calls[0].method, CreateObjMethod::kMigrate);
  EXPECT_EQ(ctx_.calls[1].x, 1);
  EXPECT_EQ(ctx_.calls[1].method, CreateObjMethod::kReplicate);
}

TEST_F(PlacementTest, OffloadStopsWhenRecipientEstimateFills) {
  // Many hot objects; recipient starts just under lw so the 4x unit-load
  // bound fills it quickly and the shedding stops early.
  for (ObjectId x = 1; x <= 5; ++x) {
    Install(x);
    Service(x, {0}, 500);
  }
  agent_.OnMeasurementTick(SecondsToSim(20.0));  // 125 req/s
  ctx_.offload_recipient = 7;
  ctx_.reported_load = params_.low_watermark - 30.0;  // 50 req/s
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  // Each replication adds 4 * 25 = 100 to the recipient estimate, so only
  // one transfer fits before the estimate exceeds lw.
  EXPECT_EQ(stats.offload_replications, 1);
}

TEST_F(PlacementTest, OffloadAbortsOnRecipientRefusal) {
  for (ObjectId x = 1; x <= 3; ++x) {
    Install(x);
    Service(x, {0}, 800);
  }
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ctx_.offload_recipient = 7;
  ctx_.accept_all = false;  // recipient refuses everything
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(stats.ran_offload);
  EXPECT_EQ(stats.offload_migrations + stats.offload_replications, 0);
  EXPECT_EQ(ctx_.calls.size(), 1u);  // gave up after the first refusal
}

TEST_F(PlacementTest, OffloadWithoutRecipientDoesNothing) {
  Install(1);
  Service(1, {0}, 2000);
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ctx_.offload_recipient = kInvalidNode;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(stats.ran_offload);
  EXPECT_EQ(ctx_.calls.size(), 0u);
}

TEST_F(PlacementTest, SingleObjectOffloadWhenBulkDisabled) {
  // The responsiveness ablation: without en-masse relocation the host
  // sheds at most one object per placement round.
  params_.bulk_offload = false;
  for (ObjectId x = 1; x <= 4; ++x) {
    Install(x);
    Service(x, {0}, 600);
  }
  agent_.OnMeasurementTick(SecondsToSim(20.0));  // 120 req/s > hw
  ctx_.offload_recipient = 7;
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_TRUE(stats.ran_offload);
  EXPECT_EQ(stats.offload_migrations + stats.offload_replications, 1);
}

TEST_F(PlacementTest, FreshlyAcquiredObjectNotInstantlyDropped) {
  // An object migrated in 1 s before this host's placement round has a
  // short local epoch; its access rate must be judged on that epoch, not
  // the host's full 100 s (which would spuriously delete it).
  ctx_.redirector.RegisterObject(9, 5);
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kMigrate, 9, 1.0,
                                   kRound - SecondsToSim(1.0))
                  .accepted);
  ctx_.redirector.OnReplicaCreated(9, 0);
  agent_.RecordServiced(9, {0});  // 1 req in its 1 s epoch = 1 req/s >> u
  const PlacementStats stats = ctx_.RunPlacement(agent_, kRound);
  EXPECT_EQ(stats.affinity_drops, 0);
  EXPECT_TRUE(agent_.HasObject(9));
}

}  // namespace
}  // namespace radar::core
