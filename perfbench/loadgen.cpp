// Closed-loop client of the loopback-daemons workload.
//
//   perfbench_loadgen --workload loopback-daemons --seed 1 --seconds 10
//       --trace 0 --config nodes.conf --id 4 --state-dir state
//       --pids 123,124,125 --window 4 --objects 10000 [--setup-only 1]
//
// One thread, one TcpTransport, one connection to the redirector and one
// to each host, a blocking poll loop. `window` slots each run the client
// side of Fig. 2 in a loop: ask the redirector where a Zipf-drawn object
// lives (Request -> Redirect), fetch it from that host (Request -> Ack),
// start the next. Redirect frames carry no sequence number, so a slot
// never draws an object another slot has in flight, and replies match by
// object.
//
// The run first waits until every host has attached (its ready-<id>
// marker in the state directory) and the client holds all its
// connections — the end of set-up. It then warms up, measures for
// `seconds` and drains what is in flight (the timed phase ends when every
// request started in it has been answered), shuts the redirector down
// before the hosts, and prints one JSON document for run.py. Daemon CPU
// comes from /proc/<pid>/schedstat at both ends of the timed phase.
//
// With --replay-capture FILE --copy-to FILE instead, it replays a
// redirector capture through the wire codec, a fresh binlog writer (into
// the --copy-to file, removed afterwards) and a bench-owned Redirector,
// and prints the per-frame costs (traced runs).
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "binlog/binlog.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/params.h"
#include "core/redirector.h"
#include "transport/node_config.h"
#include "transport/tcp_transport.h"
#include "wire/codec.h"

namespace perfbench {
namespace {

using radar::NodeId;
using radar::ObjectId;
using radar::driver::JsonValue;

constexpr double kWarmupSeconds = 0.5;
constexpr double kDrainSeconds = 2.0;
constexpr double kSetupTimeoutSeconds = 20.0;

struct Span {
  double sum_s = 0.0;
  std::vector<double> samples_us;
  void Add(double seconds) {
    sum_s += seconds;
    samples_us.push_back(seconds * 1e6);
  }
};

class ClosedLoop final : public radar::transport::Handler {
 public:
  ClosedLoop(const radar::transport::NodeConfig& config, std::uint64_t seed,
             std::int32_t objects, int window)
      : config_(config),
        rng_(seed),
        zipf_(objects),
        slot_of_object_(static_cast<std::size_t>(objects), -1),
        slots_(static_cast<std::size_t>(window)) {}

  void set_transport(radar::transport::TcpTransport* t) { transport_ = t; }

  /// Starts every slot and runs until `end`, then stops issuing and
  /// drains; requests still unanswered after the drain deadline count as
  /// failed.
  void Run(double end) {
    issuing_ = true;
    for (std::size_t s = 0; s < slots_.size(); ++s) Start(s);
    while (Now() < end) transport_->PollOnce(1);
    issuing_ = false;
    const double drain_deadline = WallSeconds() + kDrainSeconds;
    while (InFlight() > 0 && WallSeconds() < drain_deadline) {
      transport_->PollOnce(1);
    }
    timeouts_ += InFlight();
  }

  void OnFrame(NodeId from, const radar::wire::DecodedFrame& frame) override {
    const double now = Now();
    wire_bytes_ += FrameBytes(frame.msg);
    if (const auto* r = std::get_if<radar::wire::Redirect>(&frame.msg)) {
      OnRedirect(*r, now);
    } else if (const auto* a = std::get_if<radar::wire::Ack>(&frame.msg)) {
      OnAck(from, *a, now);
    } else {
      ++unexpected_;
    }
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t ok() const { return ok_; }
  std::int64_t failed() const { return failed_ + timeouts_; }
  std::int64_t unexpected() const { return unexpected_; }
  std::int64_t wire_bytes() const { return wire_bytes_; }
  /// Clock reads the loop made (for the trace's overhead estimate).
  std::int64_t clock_reads() const { return clock_reads_; }
  /// Per acked request.
  const Span& round_trip() const { return round_trip_; }
  const Span& redirect() const { return redirect_; }
  const Span& fetch() const { return fetch_; }

 private:
  enum class State : std::uint8_t { kIdle, kAwaitRedirect, kAwaitAck };
  struct Slot {
    State state = State::kIdle;
    ObjectId object = radar::kInvalidObject;
    NodeId gateway = radar::kInvalidNode;
    NodeId host = radar::kInvalidNode;
    std::uint64_t fetch_seq = 0;
    double started = 0.0;
    double redirected = 0.0;
  };

  double Now() {
    ++clock_reads_;
    return WallSeconds();
  }

  std::int64_t InFlight() const {
    return std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) {
      return s.state != State::kIdle;
    });
  }

  void Start(std::size_t s) {
    ObjectId x = radar::kInvalidObject;
    do {
      x = static_cast<ObjectId>(zipf_.Sample(rng_) - 1);
    } while (slot_of_object_[static_cast<std::size_t>(x)] >= 0);
    Slot& slot = slots_[s];
    const auto& hosts = config_.hosts();
    slot.state = State::kAwaitRedirect;
    slot.object = x;
    slot.gateway = hosts[static_cast<std::size_t>(attempted_) % hosts.size()];
    slot.started = Now();
    slot_of_object_[static_cast<std::size_t>(x)] = static_cast<int>(s);
    ++attempted_;
    Send(config_.redirector(), radar::wire::Request{x, slot.gateway});
  }

  static std::int64_t FrameBytes(const radar::wire::Message& msg) {
    return static_cast<std::int64_t>(
        radar::wire::kHeaderSize +
        radar::wire::PayloadSize(radar::wire::TypeOf(msg)));
  }

  std::uint64_t Send(NodeId to, const radar::wire::Message& msg) {
    wire_bytes_ += FrameBytes(msg);
    return transport_->Send(to, msg);
  }

  void Finish(std::size_t s, bool ok, double now) {
    Slot& slot = slots_[s];
    if (ok) {
      ++ok_;
      round_trip_.Add(now - slot.started);
      redirect_.Add(slot.redirected - slot.started);
      fetch_.Add(now - slot.redirected);
    } else {
      ++failed_;
    }
    slot_of_object_[static_cast<std::size_t>(slot.object)] = -1;
    slot.state = State::kIdle;
    if (issuing_) Start(s);
  }

  void OnRedirect(const radar::wire::Redirect& r, double now) {
    if (r.object < 0 || r.object >= static_cast<ObjectId>(slot_of_object_.size())) {
      ++unexpected_;
      return;
    }
    const int s = slot_of_object_[static_cast<std::size_t>(r.object)];
    if (s < 0 || slots_[static_cast<std::size_t>(s)].state !=
                     State::kAwaitRedirect) {
      ++unexpected_;
      return;
    }
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    if (r.host == radar::kInvalidNode) {
      Finish(static_cast<std::size_t>(s), false, now);
      return;
    }
    slot.redirected = now;
    slot.host = r.host;
    slot.state = State::kAwaitAck;
    slot.fetch_seq = Send(r.host, radar::wire::Request{slot.object, slot.gateway});
  }

  void OnAck(NodeId from, const radar::wire::Ack& a, double now) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const Slot& slot = slots_[s];
      if (slot.state == State::kAwaitAck && slot.host == from &&
          slot.fetch_seq == a.acked_seq) {
        Finish(s, a.accepted, now);
        return;
      }
    }
    ++unexpected_;
  }

  const radar::transport::NodeConfig& config_;
  radar::transport::TcpTransport* transport_ = nullptr;
  radar::Rng rng_;
  radar::ExactZipf zipf_;
  std::vector<int> slot_of_object_;
  std::vector<Slot> slots_;
  bool issuing_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t ok_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t timeouts_ = 0;
  std::int64_t unexpected_ = 0;
  std::int64_t wire_bytes_ = 0;  ///< frames sent and received, headers included
  std::int64_t clock_reads_ = 0;
  Span round_trip_;
  Span redirect_;
  Span fetch_;
};

std::vector<int> ParsePids(const std::string& text) {
  std::vector<int> pids;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) pids.push_back(std::stoi(item));
  }
  return pids;
}

bool AllReady(const radar::transport::NodeConfig& config,
              radar::transport::TcpTransport& transport,
              const std::string& state_dir) {
  if (!transport.IsPeerUp(config.redirector())) return false;
  for (const NodeId h : config.hosts()) {
    if (!transport.IsPeerUp(h)) return false;
    const std::string marker = state_dir + "/ready-" + std::to_string(h);
    if (!std::filesystem::exists(marker)) return false;
  }
  return true;
}

JsonValue SpanJson(const Span& span) {
  JsonValue j = JsonValue::MakeObject();
  const auto n = static_cast<double>(span.samples_us.size());
  j.Set("count", static_cast<std::int64_t>(span.samples_us.size()));
  j.Set("mean_us", n > 0 ? span.sum_s / n * 1e6 : 0.0);
  j.Set("p50_us", PercentileOf(span.samples_us, 50.0));
  j.Set("p99_us", PercentileOf(span.samples_us, 99.0));
  return j;
}

int RunClient(const Args& args) {
  std::string error;
  const auto config = radar::transport::NodeConfig::LoadFile(
      args.Get("config", ""), &error);
  if (!config) {
    std::cerr << "perfbench_loadgen: " << error << "\n";
    return 2;
  }
  const auto id = static_cast<NodeId>(std::stoi(args.Get("id", "-1")));
  const std::string state_dir = args.Get("state-dir", ".");
  const std::vector<int> pids = ParsePids(args.Get("pids", ""));
  const int window = std::stoi(args.Get("window", "1"));
  const std::int32_t objects = std::stoi(args.Get("objects", "1"));
  const bool setup_only = args.Get("setup-only", "0") == "1";

  ClosedLoop warmup(*config, args.seed, objects, window);
  radar::transport::TcpTransport transport(
      *config, id, radar::wire::PeerRole::kClient, &warmup, {});
  warmup.set_transport(&transport);
  if (!transport.Start(&error)) {
    std::cerr << "perfbench_loadgen: " << error << "\n";
    return 1;
  }
  transport.ConnectTo(config->redirector());
  for (const NodeId h : config->hosts()) transport.ConnectTo(h);
  const double setup_deadline = WallSeconds() + kSetupTimeoutSeconds;
  while (!AllReady(*config, transport, state_dir)) {
    if (WallSeconds() > setup_deadline) {
      std::cerr << "perfbench_loadgen: platform never assembled\n";
      return 1;
    }
    transport.PollOnce(1);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ready_at_s", WallSeconds());
  if (setup_only) {
    std::cout << out.Dump() << "\n";
    return 0;
  }

  // Warm-up (untimed): connections, daemon tables and caches settle.
  warmup.Run(WallSeconds() + kWarmupSeconds);
  ClosedLoop timed(*config, args.seed + 1, objects, window);
  timed.set_transport(&transport);
  transport.SetHandler(&timed);
  std::vector<double> cpu_before;
  for (const int pid : pids) cpu_before.push_back(ProcCpuSeconds(pid));
  const double client_before = ProcCpuSeconds(getpid());
  const double t0 = WallSeconds();
  timed.Run(t0 + args.seconds);
  const double wall = WallSeconds() - t0;
  const double client_cpu = ProcCpuSeconds(getpid()) - client_before;
  double daemon_cpu = 0.0;
  JsonValue cpu_by_pid = JsonValue::MakeArray();
  JsonValue rss_by_pid = JsonValue::MakeArray();
  double rss_total = 0.0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const double used = ProcCpuSeconds(pids[i]) - cpu_before[i];
    daemon_cpu += used;
    cpu_by_pid.Append(used);
    const double rss = ProcPeakRssMb(pids[i]);
    rss_total += rss;
    rss_by_pid.Append(rss);
  }

  const std::uint64_t disconnects = transport.stats().disconnects;
  // Orderly shutdown: the redirector first (it prunes replicas when a
  // host disconnects, so its summary only describes the live platform
  // while the hosts are still up), then every host.
  transport.Send(config->redirector(), radar::wire::Shutdown{});
  const double stop_deadline = WallSeconds() + kDrainSeconds;
  while (transport.IsPeerUp(config->redirector()) &&
         WallSeconds() < stop_deadline) {
    transport.PollOnce(1);
  }
  for (const NodeId h : config->hosts()) {
    transport.Send(h, radar::wire::Shutdown{});
  }
  while (!transport.Flushed() && WallSeconds() < stop_deadline) {
    transport.PollOnce(1);
  }

  const double empty_span = args.trace ? EmptySpanSeconds() : 0.0;
  const auto& stats = transport.stats();
  out.Set("attempted", warmup.attempted() + timed.attempted());
  out.Set("ok", warmup.ok() + timed.ok());
  out.Set("failed", warmup.failed() + timed.failed());
  out.Set("unexpected_frames", warmup.unexpected() + timed.unexpected());
  out.Set("timed_ok", timed.ok());
  out.Set("timed_wall_s", wall);
  out.Set("client_wire_bytes", warmup.wire_bytes() + timed.wire_bytes());
  out.Set("client_cpu_s", client_cpu);
  out.Set("daemon_cpu_s", daemon_cpu);
  out.Set("daemon_cpu_s_by_pid", std::move(cpu_by_pid));
  out.Set("daemon_peak_rss_mb", rss_total);
  out.Set("daemon_peak_rss_mb_by_pid", std::move(rss_by_pid));
  out.Set("round_trip", SpanJson(timed.round_trip()));
  out.Set("redirect", SpanJson(timed.redirect()));
  out.Set("fetch", SpanJson(timed.fetch()));
  out.Set("clock_reads", timed.clock_reads());
  out.Set("empty_span_ns", empty_span * 1e9);
  out.Set("frames_sent", static_cast<std::int64_t>(stats.frames_sent));
  out.Set("frames_received", static_cast<std::int64_t>(stats.frames_received));
  out.Set("connects", static_cast<std::int64_t>(stats.connects));
  out.Set("disconnects", static_cast<std::int64_t>(disconnects));
  out.Set("decode_errors", static_cast<std::int64_t>(stats.decode_errors));
  out.Set("frames_spooled", static_cast<std::int64_t>(stats.frames_spooled));
  out.Set("frames_dropped", static_cast<std::int64_t>(stats.frames_dropped));
  std::cout << out.Dump() << "\n";
  transport.Stop();
  return 0;
}

/// Replays a capture through the wire codec, a bench-owned binlog writer
/// and a bench-owned Redirector. Each layer runs alone over the whole
/// capture under one span, so per-call clock cost does not enter.
int ReplayCapture(const Args& args) {
  std::string error;
  const auto config = radar::transport::NodeConfig::LoadFile(
      args.Get("config", ""), &error);
  if (!config) {
    std::cerr << "perfbench_loadgen: " << error << "\n";
    return 2;
  }
  const std::string capture = args.Get("replay-capture", "");
  const std::int32_t objects = std::stoi(args.Get("objects", "1"));
  const auto read = radar::binlog::ReadBinlog(capture, &error);
  if (!read) {
    std::cerr << "perfbench_loadgen: " << error << "\n";
    return 1;
  }
  const std::vector<radar::binlog::Record>& records = read->records;
  const auto per_call_ns = [](double seconds, std::size_t n) {
    return n > 0 ? seconds * 1e9 / static_cast<double>(n) : 0.0;
  };

  std::vector<radar::wire::DecodedFrame> decoded;
  decoded.reserve(records.size());
  std::int64_t decode_errors = 0;
  double t = WallSeconds();
  for (const radar::binlog::Record& rec : records) {
    radar::wire::DecodeResult r =
        radar::wire::DecodeFrame(rec.payload.data(), rec.payload.size());
    if (r.status == radar::wire::DecodeStatus::kOk) {
      decoded.push_back(std::move(r.frame));
    } else {
      ++decode_errors;
    }
  }
  const double decode_ns = per_call_ns(WallSeconds() - t, records.size());

  std::vector<std::uint8_t> encoded;
  encoded.reserve(records.size() * 64);
  t = WallSeconds();
  for (const radar::wire::DecodedFrame& f : decoded) {
    radar::wire::EncodeAppend(encoded, f.seq, f.msg);
  }
  const double encode_ns = per_call_ns(WallSeconds() - t, decoded.size());

  const std::string copy_path = args.Get("copy-to", "replay.binlog");
  radar::binlog::BinlogWriter writer;
  if (!writer.Open(copy_path, radar::binlog::FsyncPolicy::kNone, &error)) {
    std::cerr << "perfbench_loadgen: " << error << "\n";
    return 1;
  }
  t = WallSeconds();
  for (const radar::binlog::Record& rec : records) {
    writer.Append(rec.time_us, rec.src, rec.dst, rec.payload.data(),
                  rec.payload.size());
  }
  const double append_ns = per_call_ns(WallSeconds() - t, records.size());
  writer.Close();
  std::filesystem::remove(copy_path);

  // Fig. 2 over the captured client requests, on the daemons' clique
  // (the construction RedirectorNode uses).
  radar::transport::CliqueDistance distance(config->num_nodes());
  radar::core::Redirector redirector(
      distance, radar::core::ProtocolParams{}.distribution_constant,
      config->redirector());
  for (ObjectId x = 0; x < objects; ++x) {
    redirector.RegisterObject(x, config->InitialHome(x));
  }
  std::vector<radar::wire::Request> requests;
  for (const radar::wire::DecodedFrame& f : decoded) {
    if (const auto* req = std::get_if<radar::wire::Request>(&f.msg)) {
      requests.push_back(*req);
    }
  }
  std::int64_t chosen = 0;
  t = WallSeconds();
  for (const radar::wire::Request& req : requests) {
    chosen += redirector.ChooseReplica(req.object, req.gateway) !=
              radar::kInvalidNode;
  }
  const double choose_ns = per_call_ns(WallSeconds() - t, requests.size());

  JsonValue out = JsonValue::MakeObject();
  out.Set("records", static_cast<std::int64_t>(records.size()));
  out.Set("capture_clean", read->clean);
  out.Set("capture_bytes",
          static_cast<std::int64_t>(std::filesystem::file_size(capture)));
  out.Set("decode_errors", decode_errors);
  out.Set("decode_ns", decode_ns);
  out.Set("encode_ns", encode_ns);
  out.Set("encoded_bytes", static_cast<std::int64_t>(encoded.size()));
  out.Set("append_ns", append_ns);
  out.Set("choose_ns", choose_ns);
  out.Set("requests_replayed", static_cast<std::int64_t>(requests.size()));
  out.Set("requests_placed", chosen);
  std::cout << out.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (!args.Get("replay-capture", "").empty()) {
    return perfbench::ReplayCapture(args);
  }
  return perfbench::RunClient(args);
}
