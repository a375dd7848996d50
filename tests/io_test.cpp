// Tests for topology file I/O, request traces, and the CLI parser.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "driver/cli.h"
#include "driver/hosting_simulation.h"
#include "net/topology_io.h"
#include "net/uunet.h"
#include "workload/trace.h"

namespace radar {
namespace {

// ---------------------------------------------------------------------
// Topology I/O
// ---------------------------------------------------------------------

constexpr const char* kSmallTopology = R"(
# a three-node test backbone
node a east-na gateway
node b europe transit
node c pacific
link a b 10 350
link b c 5.5 1000
)";

TEST(TopologyIoTest, ParsesNodesLinksAndRoles) {
  std::istringstream in(kSmallTopology);
  std::string error;
  const auto topology = net::ReadTopology(in, &error);
  ASSERT_TRUE(topology.has_value()) << error;
  EXPECT_EQ(topology->num_nodes(), 3);
  EXPECT_EQ(topology->FindByName("a"), 0);
  EXPECT_TRUE(topology->IsGateway(0));
  EXPECT_FALSE(topology->IsGateway(1));
  EXPECT_TRUE(topology->IsGateway(2));  // default role
  EXPECT_EQ(topology->RegionOf(1), net::Region::kEurope);
  EXPECT_TRUE(topology->graph().HasLink(0, 1));
  EXPECT_TRUE(topology->graph().HasLink(1, 2));
  EXPECT_FALSE(topology->graph().HasLink(0, 2));
  EXPECT_EQ(topology->graph().link(1).delay, MillisToSim(5.5));
  EXPECT_DOUBLE_EQ(topology->graph().link(1).bandwidth_bps, 1000.0 * 1024.0);
}

TEST(TopologyIoTest, RoundTripsThroughWriter) {
  const net::Topology original = net::MakeUunetBackbone();
  std::ostringstream out;
  net::WriteTopology(original, out);
  std::istringstream in(out.str());
  std::string error;
  const auto parsed = net::ReadTopology(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_nodes(), original.num_nodes());
  EXPECT_EQ(parsed->graph().num_links(), original.graph().num_links());
  for (NodeId n = 0; n < original.num_nodes(); ++n) {
    EXPECT_EQ(parsed->node(n).name, original.node(n).name);
    EXPECT_EQ(parsed->RegionOf(n), original.RegionOf(n));
    EXPECT_EQ(parsed->IsGateway(n), original.IsGateway(n));
  }
  for (const net::Link& link : original.graph().links()) {
    EXPECT_TRUE(parsed->graph().HasLink(link.a, link.b));
  }
}

struct BadTopologyCase {
  const char* name;
  const char* text;
  const char* expected_fragment;
};

class TopologyIoErrorTest
    : public ::testing::TestWithParam<BadTopologyCase> {};

TEST_P(TopologyIoErrorTest, ReportsError) {
  std::istringstream in(GetParam().text);
  std::string error;
  const auto topology = net::ReadTopology(in, &error);
  EXPECT_FALSE(topology.has_value());
  EXPECT_NE(error.find(GetParam().expected_fragment), std::string::npos)
      << "got: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TopologyIoErrorTest,
    ::testing::Values(
        BadTopologyCase{"empty", "", "no nodes"},
        BadTopologyCase{"bad_region", "node a nowhere\n", "unknown region"},
        BadTopologyCase{"bad_role", "node a europe king\n", "role"},
        BadTopologyCase{"dup_node",
                        "node a europe\nnode a europe\n", "duplicate node"},
        BadTopologyCase{"unknown_link_node",
                        "node a europe\nlink a b 10 350\n", "unknown node"},
        BadTopologyCase{"self_link",
                        "node a europe\nlink a a 10 350\n", "self-link"},
        BadTopologyCase{
            "dup_link",
            "node a europe\nnode b europe\nlink a b 10 350\nlink b a 10 "
            "350\n",
            "duplicate link"},
        BadTopologyCase{"bad_bandwidth",
                        "node a europe\nnode b europe\nlink a b 10 0\n",
                        "bandwidth"},
        BadTopologyCase{"node_after_link",
                        "node a europe\nnode b europe\nlink a b 10 350\n"
                        "node c europe\n",
                        "precede"},
        BadTopologyCase{"disconnected",
                        "node a europe\nnode b europe\nnode c europe\n"
                        "link a b 10 350\n",
                        "not connected"},
        BadTopologyCase{"garbage", "frobnicate\n", "unknown keyword"},
        // Link values the latency arithmetic cannot hold: a delay whose
        // conversion to SimTime overflows, and a bandwidth whose
        // serialization time is infinite.
        BadTopologyCase{"huge_delay",
                        "node a europe\nnode b europe\nlink a b 1e300 45000\n",
                        "line 3: delay"},
        BadTopologyCase{"tiny_bandwidth",
                        "node a europe\nnode b europe\nlink a b 10 1e-300\n",
                        "line 3: bandwidth"},
        BadTopologyCase{"node_trailing_tokens",
                        "node a west-na gateway junk\n", "line 1: trailing"},
        BadTopologyCase{
            "link_trailing_tokens",
            "node a europe\nnode b europe\nlink a b 10 45000 junk\n",
            "line 3: trailing"},
        BadTopologyCase{"no_gateway",
                        "node a europe transit\nnode b europe transit\n"
                        "link a b 10 350\n",
                        "no gateway"}),
    [](const ::testing::TestParamInfo<BadTopologyCase>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------
// Request traces
// ---------------------------------------------------------------------

TEST(RequestTraceTest, AppendAndProperties) {
  workload::RequestTrace trace;
  EXPECT_TRUE(trace.empty());
  trace.Append(100, 2, 7);
  trace.Append(200, 0, 3);
  trace.Append(200, 1, 9);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.Duration(), 200);
  EXPECT_EQ(trace.NumObjectsReferenced(), 10);
}

TEST(RequestTraceTest, SaveLoadRoundTrip) {
  workload::RequestTrace trace;
  trace.Append(0, 0, 1);
  trace.Append(1'000'000, 5, 42);
  std::ostringstream out;
  trace.Save(out);
  std::istringstream in(out.str());
  std::string error;
  const auto loaded = workload::RequestTrace::Load(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->records(), trace.records());
}

TEST(RequestTraceTest, LoadRejectsOutOfOrderRecords) {
  std::istringstream in("200 0 1\n100 0 2\n");
  std::string error;
  EXPECT_FALSE(workload::RequestTrace::Load(in, &error).has_value());
  EXPECT_NE(error.find("order"), std::string::npos);
}

TEST(RequestTraceTest, LoadRejectsShortRecords) {
  std::istringstream in("100 0\n");
  std::string error;
  EXPECT_FALSE(workload::RequestTrace::Load(in, &error).has_value());
}

TEST(RequestTraceTest, FitsRunChecksObjectsAndGateways) {
  std::istringstream topo_in(kSmallTopology);
  std::string error;
  const auto topology = net::ReadTopology(topo_in, &error);
  ASSERT_TRUE(topology.has_value()) << error;
  const auto fits = [&](const workload::RequestTrace& trace) {
    error.clear();
    return trace.FitsRun(*topology, /*num_objects=*/10, &error);
  };

  workload::RequestTrace trace;
  EXPECT_FALSE(fits(trace));
  EXPECT_EQ(error, "the trace holds no requests");
  trace.Append(0, 0, 9);
  trace.Append(5, 2, 0);  // a (gateway) and c (gateway by default)
  EXPECT_TRUE(fits(trace)) << error;
  EXPECT_EQ(error, "");

  workload::RequestTrace beyond = trace;
  beyond.Append(10, 0, 10);
  EXPECT_FALSE(fits(beyond));
  EXPECT_EQ(error, "request 3 names object 10, but the run has 10 objects");

  workload::RequestTrace transit = trace;
  transit.Append(10, 1, 0);  // b is a transit node
  EXPECT_FALSE(fits(transit));
  EXPECT_EQ(error,
            "request 3 arrives at node 1, which is not a gateway of the "
            "topology");

  workload::RequestTrace missing = trace;
  missing.Append(10, 99, 0);
  EXPECT_FALSE(fits(missing));
  EXPECT_EQ(error,
            "request 3 arrives at node 99, which is not a gateway of the "
            "topology");
}

TEST(RequestTraceTest, SynthesizeMatchesRateAndDomain) {
  workload::UniformWorkload uniform(50);
  const auto trace = workload::RequestTrace::Synthesize(
      uniform, /*num_gateways=*/4, /*rate_per_node=*/10.0,
      SecondsToSim(5.0), /*seed=*/3);
  // 4 gateways x 10 req/s x 5 s = ~200 records.
  EXPECT_NEAR(static_cast<double>(trace.size()), 200.0, 8.0);
  for (const auto& r : trace.records()) {
    EXPECT_GE(r.gateway, 0);
    EXPECT_LT(r.gateway, 4);
    EXPECT_GE(r.object, 0);
    EXPECT_LT(r.object, 50);
    EXPECT_LE(r.t, SecondsToSim(5.0));
  }
}

TEST(RequestTraceTest, SynthesizeIsDeterministic) {
  workload::ZipfWorkload a(100);
  workload::ZipfWorkload b(100);
  const auto t1 = workload::RequestTrace::Synthesize(a, 3, 5.0,
                                                     SecondsToSim(3.0), 9);
  const auto t2 = workload::RequestTrace::Synthesize(b, 3, 5.0,
                                                     SecondsToSim(3.0), 9);
  EXPECT_EQ(t1.records(), t2.records());
}

TEST(RequestTraceTest, ReplayMatchesLiveRun) {
  // A simulation driven by a synthesized trace must behave identically to
  // the workload-driven simulation the trace was captured from.
  driver::SimConfig config;
  config.num_objects = 200;
  config.duration = SecondsToSim(300.0);
  config.workload = driver::WorkloadKind::kZipf;
  config.seed = 4;

  driver::HostingSimulation live(config);
  const driver::RunReport live_report = live.Run();

  workload::ZipfWorkload zipf(config.num_objects);
  auto trace = workload::RequestTrace::Synthesize(
      zipf, net::kUunetNodeCount, config.node_request_rate, config.duration,
      config.seed);
  driver::HostingSimulation replay(config);
  replay.SetTrace(std::move(trace));
  const driver::RunReport replay_report = replay.Run();

  EXPECT_EQ(replay_report.workload_name, "trace");
  EXPECT_EQ(replay_report.total_requests, live_report.total_requests);
  EXPECT_EQ(replay_report.traffic.total_payload(),
            live_report.traffic.total_payload());
  EXPECT_EQ(replay_report.object_copies, live_report.object_copies);
}

TEST(RequestTraceDeathTest, OutOfOrderAppendAborts) {
  workload::RequestTrace trace;
  trace.Append(100, 0, 0);
  EXPECT_DEATH(trace.Append(50, 0, 0), "time order");
}

// ---------------------------------------------------------------------
// CLI parsing
// ---------------------------------------------------------------------

TEST(CliTest, DefaultsWhenNoFlags) {
  driver::CliError error;
  const auto options = driver::ParseCli({}, &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->config.workload, driver::WorkloadKind::kZipf);
  EXPECT_FALSE(options->print_series);
  EXPECT_FALSE(options->show_help);
}

TEST(CliTest, ParsesAllKnownFlags) {
  driver::CliError error;
  const auto options = driver::ParseCli(
      {"--workload=regional", "--duration=120.5", "--objects=500",
       "--seed=9", "--rate=10", "--capacity=50", "--hw=25", "--lw=20",
       "--distribution=closest", "--placement=static", "--redirectors=4",
       "--arrivals=poisson", "--topology=t.txt", "--trace=r.trace",
       "--series"},
      &error);
  ASSERT_TRUE(options.has_value()) << error.message;
  EXPECT_EQ(options->config.workload, driver::WorkloadKind::kRegional);
  EXPECT_EQ(options->config.duration, SecondsToSim(120.5));
  EXPECT_EQ(options->config.num_objects, 500);
  EXPECT_EQ(options->config.seed, 9u);
  EXPECT_DOUBLE_EQ(options->config.node_request_rate, 10.0);
  EXPECT_DOUBLE_EQ(options->config.server_capacity, 50.0);
  EXPECT_DOUBLE_EQ(options->config.protocol.high_watermark, 25.0);
  EXPECT_DOUBLE_EQ(options->config.protocol.low_watermark, 20.0);
  EXPECT_EQ(options->config.distribution,
            baselines::DistributionPolicy::kClosest);
  EXPECT_EQ(options->config.placement, baselines::PlacementPolicy::kStatic);
  EXPECT_EQ(options->config.num_redirectors, 4);
  EXPECT_EQ(options->config.arrivals, driver::ArrivalProcess::kPoisson);
  EXPECT_EQ(options->topology_file, "t.txt");
  EXPECT_EQ(options->trace_file, "r.trace");
  EXPECT_TRUE(options->print_series);
}

TEST(CliTest, HighLoadShorthand) {
  driver::CliError error;
  const auto options = driver::ParseCli({"--high-load"}, &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_DOUBLE_EQ(options->config.protocol.high_watermark, 50.0);
  EXPECT_DOUBLE_EQ(options->config.protocol.low_watermark, 40.0);
}

TEST(CliTest, HelpShortCircuits) {
  driver::CliError error;
  const auto options = driver::ParseCli({"--help", "--bogus=1"}, &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->show_help);
  EXPECT_FALSE(driver::CliUsage().empty());
}

struct BadCliCase {
  const char* name;
  const char* flag;
  const char* expected_fragment;
};

class CliErrorTest : public ::testing::TestWithParam<BadCliCase> {};

TEST_P(CliErrorTest, Rejects) {
  driver::CliError error;
  const auto options = driver::ParseCli({GetParam().flag}, &error);
  EXPECT_FALSE(options.has_value());
  EXPECT_NE(error.message.find(GetParam().expected_fragment),
            std::string::npos)
      << "got: " << error.message;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, CliErrorTest,
    ::testing::Values(
        BadCliCase{"unknown_flag", "--frob=1", "unknown flag"},
        BadCliCase{"no_value", "--workload", "unrecognized"},
        BadCliCase{"empty_value", "--workload=", "empty value"},
        BadCliCase{"bad_workload", "--workload=bogus", "unknown workload"},
        BadCliCase{"bad_duration", "--duration=-5", "positive"},
        BadCliCase{"bad_duration_text", "--duration=abc", "positive"},
        BadCliCase{"bad_objects", "--objects=0", "positive"},
        BadCliCase{"bad_distribution", "--distribution=magic",
                   "unknown distribution"},
        BadCliCase{"bad_placement", "--placement=magic",
                   "unknown placement"},
        BadCliCase{"bad_redirectors", "--redirectors=0", ">= 1"},
        BadCliCase{"bad_arrivals", "--arrivals=bursty", "deterministic"},
        BadCliCase{"positional", "stray", "unrecognized"},
        // Out-of-range values: ones that would wrap in the 32-bit config
        // fields, leave the microsecond clock's range, or truncate an
        // arrival or service period to 0 us.
        BadCliCase{"objects_wrap", "--objects=4294967297", "32-bit"},
        BadCliCase{"redirectors_wrap", "--redirectors=4294967297", "32 bits"},
        BadCliCase{"replica_floor_wrap", "--replica-floor=4294967297",
                   "32-bit"},
        BadCliCase{"jobs_wrap", "--jobs=4294967297", "32-bit"},
        BadCliCase{"duration_nan", "--duration=nan", "positive"},
        BadCliCase{"duration_huge", "--duration=1e300", "1e9"},
        BadCliCase{"duration_sub_us", "--duration=1e-7", "1e-6"},
        BadCliCase{"hw_nan", "--hw=nan", "finite"},
        BadCliCase{"rate_inf", "--rate=inf", "1e6"},
        BadCliCase{"rate_over_1e6", "--rate=2e6", "1e6"},
        BadCliCase{"capacity_over_1e6", "--capacity=2e6", "1e6"}),
    [](const ::testing::TestParamInfo<BadCliCase>& param_info) {
      return param_info.param.name;
    });

TEST(CliTest, WatermarkOrderingValidated) {
  driver::CliError error;
  const auto options = driver::ParseCli({"--hw=10", "--lw=20"}, &error);
  EXPECT_FALSE(options.has_value());
  EXPECT_NE(error.message.find("below"), std::string::npos);
}

}  // namespace
}  // namespace radar
