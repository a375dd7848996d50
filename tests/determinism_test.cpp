// Golden determinism pin for the request engine.
//
// The hot-path machinery (precomputed path latencies, allocation-free
// events, dense distance rows) is pure mechanism: it must not move a
// single bit of simulation output. This test runs a short fig6-style
// simulation and compares the full ReportJson dump byte-for-byte against
// a committed golden produced by the pre-optimization engine, so any
// change to event ordering, latency arithmetic, or replica choice fails
// loudly with a diff.
//
// A second golden pins a generated transit-stub backbone under stochastic
// link faults: there host-to-host legs and fault epochs exercise the
// network model's every-node-rowed regime, which the all-gateway UUNET
// graph cannot distinguish from the gateway-rows regime. A third pins
// Fig. 9's saturated hot sites, whose completions wait far beyond the
// event queue's first wheel level. A fourth pins a demand shift, whose
// time-varying workload must draw each arrival's object at that
// arrival's own firing time. A fifth pins a run under scripted and
// stochastic faults with a replica floor, whose crash-epoch failures and
// drop races reach the report. A sixth is CI's chaos smoke on UUNET,
// whose replicas are dropped and re-added while requests for them wait.
//
// Regenerate (only for an *intentional* semantic change, with a DESIGN.md
// note):  RADAR_UPDATE_GOLDEN=1 ./determinism_test
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report_json.h"
#include "fault/fault_plan.h"
#include "net/topology_gen.h"
#include "workload/workload.h"

namespace radar {
namespace {

std::string GoldenPath(const char* name) {
  return std::string(RADAR_GOLDEN_DIR) + "/" + name;
}

// A scaled-down Fig. 6 run: default Table 1 rates on the UUNET backbone
// under Zipf, long enough to cross placement rounds so the replication /
// migration / transfer-hook paths all execute.
driver::SimConfig GoldenConfig() {
  driver::SimConfig config;
  config.duration = SecondsToSim(200.0);
  config.num_objects = 1'000;
  config.seed = 1;
  config.workload = driver::WorkloadKind::kZipf;
  return config;
}

fault::FaultPlan ParsePlan(const char* text) {
  std::istringstream in(text);
  std::string error;
  auto plan = fault::ParseFaultPlan(in, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(fault::FaultPlan{});
}

// Compares `dump` with the committed golden `name`, or rewrites the
// golden when RADAR_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& dump, const char* name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("RADAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << dump;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden " << path
      << " (generate with RADAR_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  EXPECT_EQ(dump, golden)
      << "engine output drifted from the committed golden; if the change "
         "is intentional, regenerate with RADAR_UPDATE_GOLDEN=1 and "
         "document why in DESIGN.md";
}

TEST(GoldenDeterminismTest, Fig6ShortRunReportIsByteIdentical) {
  driver::HostingSimulation sim(GoldenConfig());
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  // The run must actually exercise the paths the engine optimizes.
  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.object_copies, 0);
  ExpectMatchesGolden(dump, "fig6_short_report.json");
}

// The same run on a 300-node transit-stub backbone (one gateway per stub
// domain) with stochastic link faults: requests, copies and every fault
// epoch's path updates all reach the report.
TEST(GoldenDeterminismTest, GeneratedTopologyLinkFaultsIsByteIdentical) {
  driver::SimConfig config = GoldenConfig();
  config.faults = ParsePlan("link-faults 1200 30\n");
  driver::HostingSimulation sim(config,
                                net::GenerateTopology("ts:n=300,seed=7"));
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.object_copies, 0);
  ASSERT_GT(report.availability.link_downs, 0);
  ExpectMatchesGolden(dump, "ts300_link_faults_report.json");
}

// Fig. 9's hot sites under the high-load watermarks: hot hosts saturate,
// so FCFS completions are scheduled seconds to minutes ahead, past the
// event queue's 256 us wheel level (one span is 262,144 us), and the
// queue's far-event ordering reaches the report.
TEST(GoldenDeterminismTest, HighLoadHotSitesIsByteIdentical) {
  driver::SimConfig config = GoldenConfig();
  config.workload = driver::WorkloadKind::kHotSites;
  config.ApplyHighLoad();
  config.num_objects = 2'000;
  config.duration = SecondsToSim(300.0);
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.object_copies, 0);
  ASSERT_GT(report.latency_stats.mean(), 0.262);
  ExpectMatchesGolden(dump, "hotsites_highload_report.json");
}

// Regional demand that turns into Zipf demand halfway through the run
// (the A3 responsiveness scenario): a workload that reads the clock, so
// no arrival may be drawn ahead of its own firing.
TEST(GoldenDeterminismTest, DemandShiftIsByteIdentical) {
  const driver::SimConfig config = GoldenConfig();
  driver::HostingSimulation sim(config);
  sim.SetWorkload(std::make_unique<workload::DemandShiftWorkload>(
      std::make_unique<workload::RegionalWorkload>(config.num_objects,
                                                   sim.topology()),
      std::make_unique<workload::ZipfWorkload>(config.num_objects),
      SecondsToSim(100.0)));
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.object_copies, 0);
  ExpectMatchesGolden(dump, "demand_shift_report.json");
}

driver::SimConfig FaultConfig() {
  driver::SimConfig config = GoldenConfig();
  config.faults = ParsePlan(
      "crash 3 20\n"
      "recover 3 60\n"
      "link-down 0 1 30\n"
      "link-up 0 1 70\n"
      "host-faults 400 40\n"
      "loss request 0.02\n"
      "delay request 0.05 30\n");
  config.replica_floor = 2;
  return config;
}

// A crash of host 3 and a link flap on the UUNET backbone, stochastic host
// faults, lossy and delayed request legs, and a replica floor of 2: the
// requests a crash kills in the FCFS queue, the ones that reach a host
// whose replica went away, and the repair pass all reach the report.
TEST(GoldenDeterminismTest, FaultsWithReplicaFloorIsByteIdentical) {
  driver::HostingSimulation sim(FaultConfig());
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.availability.host_crashes, 0);
  ASSERT_GT(report.availability.failed_requests, 0);
  ExpectMatchesGolden(dump, "faults_report.json");
}

// CI's chaos smoke on the UUNET backbone: `radar-sim --duration=600
// --objects=500 --seed=7 --fault-plan=chaos.plan --replica-floor=2`, whose
// --json output CI compares with this golden, so the plan below and the
// one in ci.yml cannot drift apart. Its lossy control messages and
// stochastic crashes drop replicas while requests for them wait in FCFS
// queues, and the repair pass re-adds them into other record slots: the
// completion of such a request must count against the object's current
// record, not against whatever the slot it arrived with now holds.
TEST(GoldenDeterminismTest, ChaosPlanIsByteIdentical) {
  driver::SimConfig config;
  config.duration = SecondsToSim(600.0);
  config.num_objects = 500;
  config.seed = 7;
  config.faults = ParsePlan(
      "host-faults 300 60\n"
      "link-faults 600 45\n"
      "loss request 0.01\n"
      "loss replicate 0.05\n"
      "loss migrate 0.05\n"
      "loss ack 0.05\n"
      "quiesce 480\n");
  config.replica_floor = 2;
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.availability.host_crashes, 0);
  ASSERT_GT(report.availability.link_downs, 0);
  ASSERT_EQ(report.availability.objects_lost, 0);
  ExpectMatchesGolden(dump, "chaos_report.json");
}

std::string RunDump(const driver::SimConfig& config) {
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  EXPECT_GT(report.total_requests, 0);
  return driver::ReportJson(report).Dump(2);
}

// Repeat runs cover Poisson arrivals (each gateway's RNG stream draws its
// gaps), which have no committed golden, next to two golden configs.
struct RepeatCase {
  const char* name;
  driver::SimConfig (*config)();
};

driver::SimConfig PoissonConfig() {
  driver::SimConfig config = GoldenConfig();
  config.arrivals = driver::ArrivalProcess::kPoisson;
  return config;
}

class GoldenDeterminismTest : public ::testing::TestWithParam<RepeatCase> {};

TEST_P(GoldenDeterminismTest, RepeatRunsAreByteIdentical) {
  const driver::SimConfig config = GetParam().config();
  EXPECT_EQ(RunDump(config), RunDump(config));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenDeterminismTest,
    ::testing::Values(RepeatCase{"golden", GoldenConfig},
                      RepeatCase{"poisson", PoissonConfig},
                      RepeatCase{"faults", FaultConfig}),
    [](const ::testing::TestParamInfo<RepeatCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(GoldenDeterminismTest, SeedChangesTheRun) {
  // Anti-pin: byte-equal repeats must not be vacuous — an engine that
  // ignored its seed would also repeat itself.
  driver::SimConfig seven = GoldenConfig();
  seven.seed = 7;
  driver::SimConfig eight = GoldenConfig();
  eight.seed = 8;
  EXPECT_NE(RunDump(seven), RunDump(eight));
}

}  // namespace
}  // namespace radar
