#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/schedstat");
  double on_cpu_ns = -1.0;
  if (!(in >> on_cpu_ns)) return -1.0;
  return on_cpu_ns * 1e-9;
}

double ProcPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = -1.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1.0;
}

double EmptySpanSeconds() {
  std::vector<double> samples;
  samples.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    const double a = WallSeconds();
    samples.push_back(WallSeconds() - a);
  }
  return Median(samples);
}

namespace {
constexpr std::uint64_t kCalibrationKeys = 200'000;
constexpr int kCalibrationLookups = 800'000;
constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kKeyMul = 2654435761ULL;
}  // namespace

Calibration::Calibration() {
  table_.reserve(kCalibrationKeys);
  for (std::uint64_t i = 0; i < kCalibrationKeys; ++i) table_[i * kKeyMul] = i;
}

double Calibration::Run() {
  const auto lookups = [this](int n) {
    std::uint64_t state = 7;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      state = state * kLcgMul + 1;
      // Keys in [0, 2^19): about 38% of the lookups hit.
      const auto it = table_.find((state >> 45) * kKeyMul);
      if (it != table_.end()) sum += it->second;
    }
    sink_ = sink_ + sum;
  };
  // Whatever ran before evicted the table; bring it back untimed, so the
  // timed pass measures the machine, not the previous tenant of the cache.
  lookups(kCalibrationLookups / 4);
  const double t0 = WallSeconds();
  lookups(kCalibrationLookups);
  return WallSeconds() - t0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PercentileOf(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  return fallback;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key.rfind("--", 0) != 0) break;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      args->extra.emplace_back(key.substr(2), value);
    }
  }
  if (argc % 2 == 0 || args->workload.empty() || args->seconds <= 0.0) {
    std::cerr << "usage: " << argv[0]
              << " --workload NAME --seed N --seconds S --trace 0|1"
                 " [--key value ...]\n";
    return false;
  }
  return true;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  radar::driver::JsonValue m = radar::driver::JsonValue::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  metrics_.Set(name, std::move(m));
}

void Result::Info(const std::string& key, radar::driver::JsonValue value) {
  info_.Set(key, std::move(value));
}

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  radar::driver::JsonValue c = radar::driver::JsonValue::MakeObject();
  c.Set("name", name);
  c.Set("ok", ok);
  c.Set("detail", detail);
  checks_.Append(std::move(c));
  correct_ = correct_ && ok;
}

std::string Result::Dump() const {
  radar::driver::JsonValue doc = radar::driver::JsonValue::MakeObject();
  doc.Set("correct", correct_);
  doc.Set("attempted", attempted_);
  doc.Set("failed", failed_);
  doc.Set("metrics", metrics_);
  doc.Set("checks", checks_);
  doc.Set("info", info_);
  return doc.Dump();
}

}  // namespace perfbench
