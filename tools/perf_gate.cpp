// CI perf-regression gate over radar.perfbench/1 documents.
//
// Compares a freshly measured throughput report (bench/throughput --json)
// against the committed baseline (BENCH_perf.json) and fails — exit 1 —
// when any gated metric of any scale dropped by more than the threshold
// (default 15%). By default BOTH requests_per_sec and events_per_sec are
// gated — a refactor can keep request throughput flat while regressing
// the event queue, and the gate must see that. The margin absorbs
// CI-machine noise while still catching the step regressions a hot-path
// change can introduce; improvements and sub-threshold wobble pass
// silently.
//
// Usage:
//   perf_gate --baseline BENCH_perf.json --current BENCH_new.json
//             [--threshold-pct 15] [--metric NAME]...
//
// --metric is repeatable; passing it explicitly replaces the default
// {requests_per_sec, events_per_sec} set.
//
// Every scale present in the baseline must be present in the current
// report (a vanished scale is a gate failure, not a skip); extra scales in
// the current report are ignored. The comparison prints one line per
// scale either way, so the gate's log doubles as the perf trajectory.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/report_json.h"

namespace {

using radar::driver::JsonValue;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Loads and validates a radar.perfbench/1 document; exits on failure.
JsonValue LoadPerfDoc(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "perf_gate: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::string error;
  auto doc = radar::driver::ParseJson(text, &error);
  if (!doc) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", path.c_str(), error.c_str());
    std::exit(2);
  }
  const JsonValue* schema = doc->Find("schema");
  if (schema == nullptr || schema->string_value() != "radar.perfbench/1") {
    std::fprintf(stderr, "perf_gate: %s is not a radar.perfbench/1 document\n",
                 path.c_str());
    std::exit(2);
  }
  if (const JsonValue* scales = doc->Find("scales");
      scales == nullptr || scales->kind() != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "perf_gate: %s has no scales array\n", path.c_str());
    std::exit(2);
  }
  return *std::move(doc);
}

const JsonValue* FindScale(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& scale : doc.Find("scales")->array()) {
    const JsonValue* n = scale.Find("name");
    if (n != nullptr && n->string_value() == name) return &scale;
  }
  return nullptr;
}

double MetricOf(const JsonValue& scale, const std::string& metric,
                const std::string& name, const std::string& which) {
  const JsonValue* value = scale.Find(metric);
  if (value == nullptr || !value->is_number()) {
    std::fprintf(stderr, "perf_gate: scale %s in the %s report has no %s\n",
                 name.c_str(), which.c_str(), metric.c_str());
    std::exit(2);
  }
  return value->double_value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  std::vector<std::string> metrics;
  double threshold_pct = 15.0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_gate: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--baseline") == 0) {
      baseline_path = next();
    } else if (std::strcmp(arg, "--current") == 0) {
      current_path = next();
    } else if (std::strcmp(arg, "--metric") == 0) {
      metrics.emplace_back(next());
    } else if (std::strcmp(arg, "--threshold-pct") == 0) {
      threshold_pct = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr, "perf_gate: unknown argument %s\n", arg);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: perf_gate --baseline PATH --current PATH "
                 "[--threshold-pct N] [--metric NAME]...\n");
    return 2;
  }
  if (metrics.empty()) {
    metrics = {"requests_per_sec", "events_per_sec"};
  }
  if (threshold_pct <= 0.0 || threshold_pct >= 100.0) {
    std::fprintf(stderr, "perf_gate: threshold must be in (0, 100)\n");
    return 2;
  }

  const JsonValue baseline = LoadPerfDoc(baseline_path);
  const JsonValue current = LoadPerfDoc(current_path);

  int failures = 0;
  int compared = 0;
  for (const JsonValue& base_scale : baseline.Find("scales")->array()) {
    const JsonValue* name_value = base_scale.Find("name");
    if (name_value == nullptr) continue;
    const std::string& name = name_value->string_value();
    const JsonValue* cur_scale = FindScale(current, name);
    if (cur_scale == nullptr) {
      std::fprintf(stderr, "FAIL  %-8s missing from the current report\n",
                   name.c_str());
      ++failures;
      continue;
    }
    for (const std::string& metric : metrics) {
      const double base = MetricOf(base_scale, metric, name, "baseline");
      const double cur = MetricOf(*cur_scale, metric, name, "current");
      if (base <= 0.0) {
        std::fprintf(stderr, "FAIL  %-8s baseline %s is not positive\n",
                     name.c_str(), metric.c_str());
        ++failures;
        continue;
      }
      ++compared;
      const double change_pct = (cur / base - 1.0) * 100.0;
      const bool regressed = change_pct < -threshold_pct;
      std::printf("%s  %-8s %-18s %14.0f -> %14.0f  (%+.1f%%)\n",
                  regressed ? "FAIL" : "ok  ", name.c_str(), metric.c_str(),
                  base, cur, change_pct);
      if (regressed) ++failures;
    }
  }

  if (compared == 0 && failures == 0) {
    std::fprintf(stderr, "perf_gate: baseline has no named scales\n");
    return 2;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "perf_gate: %d metric(s) regressed more than %.1f%%\n",
                 failures, threshold_pct);
    return 1;
  }
  std::printf("perf_gate: all %d metric comparison(s) within %.1f%% of "
              "baseline\n",
              compared, threshold_pct);
  return 0;
}
