#pragma once

// Shared scaffolding for the experiment benches. A bench binary's
// Report() regenerates an artifact of the paper (a table, a figure, or
// an ablation the text argues for) next to the paper-reported value,
// or runs self-checks that exit 1 on a fault; google-benchmark then
// times what perfbench/ cannot split into a layer of its own.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "base/result.h"

namespace sitm::bench {

/// Prints the experiment banner.
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

/// Prints one "paper vs measured" row.
inline void Row(const std::string& metric, const std::string& paper,
                const std::string& measured, const std::string& note = "") {
  std::printf("  %-38s paper: %-22s ours: %-22s %s\n", metric.c_str(),
              paper.c_str(), measured.c_str(), note.c_str());
}

/// Aborts the bench with a message if a Status is not OK.
inline void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "BENCH SETUP FAILED: " << status << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

/// Runs the report generator, then google-benchmark.
#define SITM_BENCH_MAIN(report_fn)                         \
  int main(int argc, char** argv) {                        \
    report_fn();                                           \
    ::benchmark::Initialize(&argc, argv);                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                 \
    ::benchmark::Shutdown();                               \
    return 0;                                              \
  }

}  // namespace sitm::bench

