// Unit tests for HostAgent: access counting along preference paths, load
// measurement, the Sec. 2.1 load estimates, and CreateObj admission
// (Fig. 4).
#include <gtest/gtest.h>

#include "core/host_agent.h"
#include "fake_context.h"

namespace radar::core {
namespace {

using testing::FakeContext;

ProtocolParams TestParams() {
  ProtocolParams p;  // paper defaults
  return p;
}

class HostAgentTest : public ::testing::Test {
 protected:
  HostAgentTest() : params_(TestParams()), agent_(0, 8, &params_) {}

  ProtocolParams params_;
  HostAgent agent_;
};

TEST_F(HostAgentTest, InitialReplicaState) {
  agent_.AddInitialReplica(7);
  EXPECT_TRUE(agent_.HasObject(7));
  EXPECT_FALSE(agent_.HasObject(8));
  EXPECT_EQ(agent_.Affinity(7), 1);
  EXPECT_EQ(agent_.Affinity(8), 0);
  EXPECT_EQ(agent_.NumObjects(), 1u);
}

TEST_F(HostAgentTest, ObjectsSortedAscending) {
  agent_.AddInitialReplica(5);
  agent_.AddInitialReplica(1);
  agent_.AddInitialReplica(3);
  EXPECT_EQ(agent_.Objects(), (std::vector<ObjectId>{1, 3, 5}));
}

TEST_F(HostAgentTest, RecordServicedCountsEveryPathNode) {
  agent_.AddInitialReplica(1);
  agent_.RecordServiced(1, {0, 2, 5});
  agent_.RecordServiced(1, {0, 2, 6});
  EXPECT_EQ(agent_.AccessCount(1, 0), 2u);  // self: total access count
  EXPECT_EQ(agent_.AccessCount(1, 2), 2u);
  EXPECT_EQ(agent_.AccessCount(1, 5), 1u);
  EXPECT_EQ(agent_.AccessCount(1, 6), 1u);
  EXPECT_EQ(agent_.AccessCount(1, 7), 0u);

  // Hundreds of bumps into one row; in {0, 6, 2}, node 2's entry sits
  // before node 6's, so finding it wraps to the row's start.
  agent_.AddInitialReplica(2);
  for (int round = 0; round < 100; ++round) {
    agent_.RecordServiced(2, {0, 2, 5});
    agent_.RecordServiced(2, {0, 2, 6});
    agent_.RecordServiced(2, {0, 6, 2});
    agent_.RecordServiced(2, {0});
  }
  EXPECT_EQ(agent_.AccessCount(2, 0), 400u);
  EXPECT_EQ(agent_.AccessCount(2, 2), 300u);
  EXPECT_EQ(agent_.AccessCount(2, 5), 100u);
  EXPECT_EQ(agent_.AccessCount(2, 6), 200u);
  EXPECT_EQ(agent_.AccessCount(2, 7), 0u);
}

// Paths of one, two, three and four nodes, interleaved, some leaving the
// order in which the row first saw their nodes: self is counted once per
// request, and every other node once per path naming it.
TEST_F(HostAgentTest, SelfCountsEveryRequestAcrossPathLengths) {
  agent_.AddInitialReplica(3);
  const std::vector<std::vector<NodeId>> paths = {
      {0}, {0, 2, 5}, {0, 7}, {0, 6, 2, 5}, {0, 5, 2}, {0}, {0, 4, 6, 7}};
  std::vector<std::uint32_t> want(8, 0);
  std::uint32_t requests = 0;
  for (std::size_t round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      // Both entry points: a fresh lookup, and a slot taken beforehand.
      if ((round + i) % 2 == 0) {
        agent_.RecordServiced(3, paths[i]);
      } else {
        const HostAgent::Slot slot = agent_.ServiceSlot(3);
        EXPECT_TRUE(agent_.RecordServicedIfHosted(3, slot, paths[i]));
      }
      ++requests;
      for (const NodeId p : paths[i]) ++want[static_cast<std::size_t>(p)];
    }
  }
  EXPECT_EQ(agent_.AccessCount(3, 0), requests);
  for (NodeId p = 0; p < 8; ++p) {
    EXPECT_EQ(agent_.AccessCount(3, p), want[static_cast<std::size_t>(p)])
        << "node " << p;
  }
}

TEST_F(HostAgentTest, SelfOnlyPathForLocalGateway) {
  agent_.AddInitialReplica(1);
  agent_.RecordServiced(1, {0});
  EXPECT_EQ(agent_.AccessCount(1, 0), 1u);
}

TEST_F(HostAgentTest, MeasuredLoadIsServicedRate) {
  agent_.AddInitialReplica(1);
  agent_.AddInitialReplica(2);
  for (int i = 0; i < 60; ++i) agent_.RecordServiced(1, {0});
  for (int i = 0; i < 40; ++i) agent_.RecordServiced(2, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 5.0);  // 100 req / 20 s
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(1), 3.0);
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(2), 2.0);
  EXPECT_DOUBLE_EQ(agent_.UnitLoad(1), 3.0);
}

TEST_F(HostAgentTest, MeasurementIntervalsAreDisjoint) {
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 20; ++i) agent_.RecordServiced(1, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 1.0);
  // No requests in the second interval.
  agent_.OnMeasurementTick(SecondsToSim(40.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 0.0);
}

TEST_F(HostAgentTest, UntrackedServiceCountsTowardHostLoadOnly) {
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 10; ++i) agent_.RecordServicedUntracked();
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 0.5);
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(1), 0.0);
}

TEST_F(HostAgentTest, UnitLoadDividesByAffinity) {
  agent_.AddInitialReplica(1);
  // Raise affinity to 2 via an accepted CreateObj.
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0,
                                   SecondsToSim(1.0))
                  .accepted);
  EXPECT_EQ(agent_.Affinity(1), 2);
  for (int i = 0; i < 40; ++i) agent_.RecordServiced(1, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(1), 2.0);
  EXPECT_DOUBLE_EQ(agent_.UnitLoad(1), 1.0);
}

TEST_F(HostAgentTest, CreateObjRefusedAboveLowWatermark) {
  // Drive measured load above lw (80 req/s): 1700 requests in 20 s = 85.
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 1700; ++i) agent_.RecordServiced(1, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ASSERT_GT(agent_.measured_load(), params_.low_watermark);
  EXPECT_FALSE(agent_
                   .HandleCreateObj(CreateObjMethod::kReplicate, 9, 1.0,
                                    SecondsToSim(21.0))
                   .accepted);
  EXPECT_FALSE(agent_.HasObject(9));
}

TEST_F(HostAgentTest, MigrationRefusedWhenBoundWouldCrossHighWatermark) {
  // Load 60 (below lw). A migration with unit load 10 has an upper-bound
  // increase of 40, crossing hw = 90 -> refuse; a replication with the
  // same load must be accepted (bootstrap rule).
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 1200; ++i) agent_.RecordServiced(1, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  ASSERT_DOUBLE_EQ(agent_.measured_load(), 60.0);
  EXPECT_FALSE(agent_
                   .HandleCreateObj(CreateObjMethod::kMigrate, 9, 10.0,
                                    SecondsToSim(21.0))
                   .accepted);
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kReplicate, 9, 10.0,
                                   SecondsToSim(21.0))
                  .accepted);
}

TEST_F(HostAgentTest, AcceptanceRaisesAdmissionEstimateByFourUnitLoads) {
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kMigrate, 9, 2.5,
                                   SecondsToSim(1.0))
                  .accepted);
  EXPECT_DOUBLE_EQ(agent_.AdmissionLoad(), 10.0);
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 0.0);
}

TEST_F(HostAgentTest, BulkAcceptancesAccumulateEstimate) {
  for (ObjectId x = 10; x < 15; ++x) {
    EXPECT_TRUE(agent_
                    .HandleCreateObj(CreateObjMethod::kMigrate, x, 3.0,
                                     SecondsToSim(1.0))
                    .accepted);
  }
  EXPECT_DOUBLE_EQ(agent_.AdmissionLoad(), 60.0);
  // The sixth acceptance would bound past hw for migrations: 60 + 4*10=100.
  EXPECT_FALSE(agent_
                   .HandleCreateObj(CreateObjMethod::kMigrate, 20, 10.0,
                                    SecondsToSim(1.0))
                   .accepted);
}

TEST_F(HostAgentTest, EstimateRevertsAfterQuietInterval) {
  EXPECT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kMigrate, 9, 2.0,
                                   SecondsToSim(5.0))
                  .accepted);
  EXPECT_DOUBLE_EQ(agent_.AdmissionLoad(), 8.0);
  // Interval [0, 20) contains the acquisition: the estimate must persist.
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.AdmissionLoad(), agent_.measured_load() + 8.0);
  // Interval [20, 40) starts after the acquisition: revert to measurement.
  agent_.OnMeasurementTick(SecondsToSim(40.0));
  EXPECT_DOUBLE_EQ(agent_.AdmissionLoad(), agent_.measured_load());
}

TEST_F(HostAgentTest, DuplicateCreateIncrementsAffinityWithoutCopy) {
  agent_.AddInitialReplica(1);
  const CreateObjResponse resp = agent_.HandleCreateObj(
      CreateObjMethod::kReplicate, 1, 0.5, SecondsToSim(1.0));
  EXPECT_TRUE(resp.accepted);
  EXPECT_FALSE(resp.created_new_copy);
  EXPECT_EQ(agent_.Affinity(1), 2);
}

TEST_F(HostAgentTest, FreshCopyReportsCreatedNewCopy) {
  const CreateObjResponse resp = agent_.HandleCreateObj(
      CreateObjMethod::kReplicate, 1, 0.5, SecondsToSim(1.0));
  EXPECT_TRUE(resp.accepted);
  EXPECT_TRUE(resp.created_new_copy);
}

TEST_F(HostAgentTest, NewReplicaInheritsUnitLoadEstimate) {
  agent_.HandleCreateObj(CreateObjMethod::kMigrate, 9, 1.5, SecondsToSim(1.0));
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(9), 1.5);
}

TEST_F(HostAgentTest, UnitAccessRateUsesEpochAndAffinity) {
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 100; ++i) agent_.RecordServiced(1, {0});
  // 100 requests over a 100 s epoch at affinity 1 -> 1 req/s.
  EXPECT_DOUBLE_EQ(agent_.UnitAccessRate(1, SecondsToSim(100.0)), 1.0);
}

TEST_F(HostAgentTest, UnitAccessRateOfFreshReplicaUsesAcquisitionTime) {
  // Acquired at t=90 with 10 requests by t=100: rate is 1/s, not 0.1/s.
  agent_.HandleCreateObj(CreateObjMethod::kMigrate, 9, 0.0,
                         SecondsToSim(90.0));
  for (int i = 0; i < 10; ++i) agent_.RecordServiced(9, {0});
  EXPECT_DOUBLE_EQ(agent_.UnitAccessRate(9, SecondsToSim(100.0)), 1.0);
}

// Drops cold object x from the agent through a placement round at `now`:
// a second replica elsewhere lets the redirector grant the drop.
void DropCold(HostAgent& agent, FakeContext& ctx, ObjectId x, SimTime now) {
  ctx.redirector.RegisterObject(x, agent.self());
  ctx.redirector.OnReplicaCreated(x, 5);
  ctx.RunPlacement(agent, now);
  ASSERT_FALSE(agent.HasObject(x));
}

// A request's slot outlives its object: the object is dropped while the
// request waits and the slot goes to another object. The completion must
// not count the request against the slot's new owner.
TEST_F(HostAgentTest, SlotReusedByAnotherObjectRecordsUntracked) {
  FakeContext ctx(8);
  agent_.AddInitialReplica(1);
  const HostAgent::Slot slot = agent_.ServiceSlot(1);
  ASSERT_NE(slot, HostAgent::kNoSlot);

  DropCold(agent_, ctx, 1, SecondsToSim(100.0));
  agent_.OnMeasurementTick(SecondsToSim(100.0));
  ASSERT_TRUE(agent_
                  .HandleCreateObj(CreateObjMethod::kReplicate, 2, 0.0,
                                   SecondsToSim(100.0))
                  .accepted);
  ASSERT_EQ(agent_.ServiceSlot(2), slot);  // the freed slot, recycled

  EXPECT_FALSE(agent_.RecordServicedIfHosted(1, slot, {0, 3}));
  EXPECT_EQ(agent_.AccessCount(1, 0), 0u);
  EXPECT_EQ(agent_.AccessCount(2, 0), 0u);
  EXPECT_EQ(agent_.AccessCount(2, 3), 0u);
  agent_.OnMeasurementTick(SecondsToSim(120.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 1.0 / 20.0);  // 1 req / 20 s
  EXPECT_DOUBLE_EQ(agent_.ObjectLoad(2), 0.0);
}

// Dropped and re-added while a request waits: into another slot (the old
// one went to a different object) and back into its own slot. Either way
// the request counts against the object's current record.
TEST_F(HostAgentTest, ReaddedObjectRecordsAgainstItsCurrentRecord) {
  const SimTime t = SecondsToSim(100.0);
  FakeContext ctx(8);
  agent_.AddInitialReplica(1);
  const HostAgent::Slot old_slot = agent_.ServiceSlot(1);
  DropCold(agent_, ctx, 1, t);
  ASSERT_TRUE(
      agent_.HandleCreateObj(CreateObjMethod::kReplicate, 2, 0.0, t).accepted);
  ASSERT_TRUE(
      agent_.HandleCreateObj(CreateObjMethod::kReplicate, 1, 0.0, t).accepted);
  ASSERT_NE(agent_.ServiceSlot(1), old_slot);

  EXPECT_TRUE(agent_.RecordServicedIfHosted(1, old_slot, {0, 3}));
  EXPECT_EQ(agent_.AccessCount(1, 0), 1u);
  EXPECT_EQ(agent_.AccessCount(1, 3), 1u);
  EXPECT_EQ(agent_.AccessCount(2, 0), 0u);

  // Back into the slot it held: that slot is its current record again.
  HostAgent agent(0, 8, &params_);
  FakeContext ctx2(8);
  agent.AddInitialReplica(4);
  const HostAgent::Slot own_slot = agent.ServiceSlot(4);
  DropCold(agent, ctx2, 4, t);
  ASSERT_TRUE(
      agent.HandleCreateObj(CreateObjMethod::kReplicate, 4, 0.0, t).accepted);
  ASSERT_EQ(agent.ServiceSlot(4), own_slot);
  EXPECT_TRUE(agent.RecordServicedIfHosted(4, own_slot, {0, 6}));
  EXPECT_EQ(agent.AccessCount(4, 0), 1u);
  EXPECT_EQ(agent.AccessCount(4, 6), 1u);
}

TEST_F(HostAgentTest, OffloadLoadLowerBoundedByShedding) {
  FakeContext ctx(8);
  ctx.redirector.RegisterObject(1, 0);
  agent_.AddInitialReplica(1);
  for (int i = 0; i < 2000; ++i) agent_.RecordServiced(1, {0});
  agent_.OnMeasurementTick(SecondsToSim(20.0));
  EXPECT_DOUBLE_EQ(agent_.measured_load(), 100.0);
  EXPECT_DOUBLE_EQ(agent_.OffloadLoad(), 100.0);
  // Run a placement round: load 100 > hw, offload sheds toward node 5.
  ctx.offload_recipient = 5;
  ctx.reported_load = 0.0;
  const PlacementStats stats = ctx.RunPlacement(agent_, SecondsToSim(100.0));
  EXPECT_TRUE(stats.offloading_mode);
  EXPECT_GT(stats.offload_replications + stats.offload_migrations, 0);
  EXPECT_LT(agent_.OffloadLoad(), 100.0);
}

TEST(HostAgentDeathTest, PathMustStartAtSelf) {
  ProtocolParams params;
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  EXPECT_DEATH(agent.RecordServiced(1, {2, 0}), "preference path");
}

TEST(HostAgentDeathTest, ServiceForUnknownObjectAborts) {
  ProtocolParams params;
  HostAgent agent(0, 4, &params);
  EXPECT_DEATH(agent.RecordServiced(9, {0}), "not hosted");
}

TEST(HostAgentDeathTest, DoubleInitialReplicaAborts) {
  ProtocolParams params;
  HostAgent agent(0, 4, &params);
  agent.AddInitialReplica(1);
  EXPECT_DEATH(agent.AddInitialReplica(1), "already present");
}

}  // namespace
}  // namespace radar::core
