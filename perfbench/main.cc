// The end-to-end benchmark program: runs one workload in this process and
// prints its result as one JSON line.
//
//   perfbench --workload batch_build|query_mix|live_http --seed N
//             --seconds S --trace 0|1 --workdir DIR
//   perfbench --list-metrics
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the same
// workload with benchmark-side spans around each call into a layer and
// reports the per-layer metrics instead. A per-layer metric of a layer
// the workload never calls reads 0. Failed operations and answer
// mismatches are counted, never fatal; a broken set-up exits 1 without
// printing a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload batch_build|query_mix|live_http "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n"
               "       perfbench --list-metrics\n";
  return 2;
}

void ListMetrics() {
  for (const MetricDef& m : EndToEndMetrics()) {
    std::printf("end_to_end %s %s\n", m.name, m.unit);
  }
  for (const MetricDef& m : PerLayerMetrics()) {
    std::printf("per_layer %s %s\n", m.name, m.unit);
  }
}

void PrintResult(Outcome& out, bool trace) {
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = out.metrics().find(def.name);
    double value = 0;
    if (it != out.metrics().end()) {
      value = it->second;
    } else if (!trace) {
      out.Check(false, std::string("metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      out.Check(false, std::string("metric not finite: ") + def.name);
      value = 0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + def.name +
               "\": {\"value\": " + number + ", \"unit\": \"" + def.unit +
               "\"}";
  }
  const bool correct = out.failed() == 0 && out.attempted() > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, out.attempted())),
      static_cast<unsigned long long>(out.failed()), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Config config;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_workdir || !(config.seconds > 0)) return Usage();
  std::filesystem::create_directories(config.workdir);

  Outcome out;
  if (config.workload == "batch_build") {
    out = RunBatchBuild(config);
  } else if (config.workload == "query_mix") {
    out = RunQueryMix(config);
  } else if (config.workload == "live_http") {
    out = RunLiveHttp(config);
  } else {
    std::cerr << "unknown workload: " << config.workload << "\n";
    return 2;
  }
  PrintResult(out, config.trace);
  return 0;
}
