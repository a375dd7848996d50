// Helpers shared by the benchmark's drivers: clocks, process resource
// readings, argument parsing and the result document both drivers print.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/report_json.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
double WallSeconds();
/// CPU time of this process (all threads) in seconds.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMb();
/// CPU time a process has run, from /proc/<pid>/schedstat, in seconds;
/// negative when it cannot be read.
double ProcCpuSeconds(int pid);
/// VmHWM (peak resident set) of a process in MiB; negative when unknown.
double ProcPeakRssMb(int pid);

/// Cost of one span's two clock reads: the median of many WallSeconds
/// pairs around nothing. Traced runs subtract it from every span.
double EmptySpanSeconds();

/// Times the machine with a fixed kernel that shares no code with src/:
/// random lookups in a hash map of a few MB, the cache-bound access
/// pattern of the simulator. On a VM shared with other tenants the
/// machine's speed drifts by up to 1.5x within minutes, in CPU time as
/// much as in wall time, and this kernel drifts with the simulator. The
/// simulator workloads report their timed phase in reference seconds:
/// measured seconds x Scale(kernel seconds measured next to them). A
/// change to src/ moves the metrics but not the kernel.
class Calibration {
 public:
  /// The kernel's time on the reference machine; it defines the
  /// reference second.
  static constexpr double kReferenceSeconds = 0.035;

  Calibration();
  /// Runs the kernel once and returns its wall seconds.
  double Run();
  /// Reference seconds per measured second next to a kernel time of
  /// `kernel_seconds`.
  static double Scale(double kernel_seconds) {
    return kReferenceSeconds / kernel_seconds;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the lookups from being elided
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, pct in (0, 100] (0 when empty).
double PercentileOf(std::vector<double> values, double pct);

/// The command line every driver accepts: --workload, --seed, --seconds,
/// --trace, plus driver-specific `--key value` pairs kept in `extra`.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::pair<std::string, std::string>> extra;
  /// Value of an extra flag, or `fallback` when absent.
  std::string Get(const std::string& key, const std::string& fallback) const;
};
/// Parses argv; prints usage and returns false on a malformed line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Accumulates one workload's result: metrics with units, the attempted /
/// failed operation counts, named correctness checks and free-form info.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, radar::driver::JsonValue value);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void set_attempted(std::int64_t n) { attempted_ = n; }
  void set_failed(std::int64_t n) { failed_ = n; }
  bool correct() const { return correct_; }
  /// The document run.py consumes: {"correct", "attempted", "failed",
  /// "metrics", "checks", "info"}.
  std::string Dump() const;

 private:
  radar::driver::JsonValue metrics_ = radar::driver::JsonValue::MakeObject();
  radar::driver::JsonValue checks_ = radar::driver::JsonValue::MakeArray();
  radar::driver::JsonValue info_ = radar::driver::JsonValue::MakeObject();
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
