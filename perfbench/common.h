// Shared fixtures of the benchmark workloads: the seeded Louvre
// population, the pipeline configuration every path uses, the six
// paper-shaped query classes and their seeded request sequence, and the
// run outcome every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/builder.h"
#include "core/pipeline.h"
#include "core/trajectory.h"
#include "harness.h"
#include "live/incremental_builder.h"
#include "louvre/museum.h"
#include "query/executor.h"
#include "sched/executor.h"

namespace perfbench {

/// Every workload schedules on an executor of exactly this many workers,
/// whatever the machine's core count.
inline constexpr std::size_t kWorkers = 2;

/// How many times a run repeats its set-up; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for store files (created and removed by the run).
  std::string workdir;
};

/// Operation accounting and metrics of one run.
class Outcome {
 public:
  /// Counts one attempted operation that failed unless `ok`.
  void Check(bool ok, const std::string& what);
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  void Set(const std::string& name, double value) { metrics_[name] = value; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Aborts the run with a message on a library error (set-up only: the
/// timed operations count their failures in an Outcome instead).
void Require(const sitm::Status& status, const char* what);

template <typename T>
T Require(sitm::Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

const sitm::louvre::LouvreMap& Map();
const sitm::indoor::Nrg& ZoneGraph();
sitm::query::QueryContext Context();

/// A seeded simulation: the detections plus how long generating them took.
struct Population {
  std::vector<sitm::core::RawDetection> detections;
  double simulate_s = 0;
};

/// Simulates `visitors` visitors (with the §4.1 ratios of returning and
/// third visits, about four detections per visit) over `replication`
/// copies of the museum map.
Population Simulate(std::uint64_t seed, int visitors, int replication);

/// The batch pipeline every workload runs: graph-aware build,
/// stop/move and final-exit enrichment, hidden-passage inference.
sitm::core::PipelineOptions PipelineConfig(sitm::TaskRunner* executor);

/// The same semantics for the live incremental builder.
sitm::live::IncrementalOptions IncrementalConfig(
    sitm::Duration allowed_lateness);

/// The six query classes, cheapest first.
enum class QueryClass : int {
  kPoint = 0,
  kWindow,
  kZone,
  kAnnotation,
  kEpisode,
  kTopK,
};
inline constexpr int kNumQueryClasses = 6;
const char* QueryClassName(QueryClass c);

/// One query request, in a form that round-trips through a URL query
/// string for the live workload.
struct QuerySpec {
  QueryClass cls = QueryClass::kPoint;
  std::int64_t object = 0;  ///< kPoint
  std::int64_t cell = 0;    ///< kZone: the wing
  std::int64_t from = 0;    ///< window bounds (epoch seconds)
  std::int64_t to = 0;
  int term = 0;             ///< kAnnotation: index into the term list
  std::size_t probe = 0;    ///< kTopK: index into the probe list

  /// "class=point&object=12" style rendering.
  std::string ToParams() const;
  static sitm::Result<QuerySpec> FromParams(
      const std::vector<std::pair<std::string, std::string>>& params);
};

/// Builds the library query of a spec; `probes` backs kTopK.
sitm::query::Query MakeQuery(
    const QuerySpec& spec,
    const std::vector<sitm::core::SemanticTrajectory>& probes);

/// What seeded query sequences draw from.
struct QueryUniverse {
  std::vector<std::int64_t> objects;
  std::vector<std::int64_t> wings;
  std::int64_t min_time = 0;
  std::int64_t max_time = 0;
  std::size_t num_probes = 0;
};

QueryUniverse UniverseOf(const std::vector<sitm::core::RawDetection>& detections,
                         std::size_t num_probes);

/// Class shares of a sequence: counts per class, cheapest first.
using ClassCounts = std::vector<std::size_t>;

/// A seeded, shuffled request sequence with exactly `counts[c]` requests
/// of class c, drawn from fixed pools of `pool_sizes[c]` keys. Cacheable
/// classes draw key i with Zipf weight (i + 1)^-skew, so with a skew some
/// keys repeat often while the key set can exceed a cache's capacity;
/// the others draw uniformly.
std::vector<QuerySpec> MakeSequence(std::uint64_t seed,
                                    const QueryUniverse& universe,
                                    const ClassCounts& counts,
                                    const ClassCounts& pool_sizes,
                                    double skew);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Returns freed heap memory to the system. Called between repetitions,
/// so peak_rss_mb is the peak of one repetition rather than allocator
/// drift that grows with however many repetitions fit in a run.
void ReleaseFreedMemory();

/// The executor's trace over one window of time: tasks run, steals,
/// the share of worker time spent in task bodies, and spans lost to
/// ring overflow (a non-zero count makes the other three unreliable).
struct SchedSample {
  double tasks = 0;
  double steals = 0;
  double busy_frac = 0;
  double dropped = 0;
};
SchedSample SchedWindow(const sitm::sched::Executor& executor,
                        std::int64_t begin_ns, std::int64_t end_ns);

/// What a run timed, in wall and process CPU time; index [1] holds the
/// traced repetitions or passes of a traced run, [0] all others.
struct Timings {
  /// Per set-up repetition.
  std::vector<double> setup_wall_s, setup_cpu_s;
  /// Detections made queryable by one repetition, and per repetition the
  /// time that took.
  double detections = 0;
  std::vector<double> build_wall_s[2], build_cpu_s[2];
  /// Per repetition or pass: queries divided by their summed time.
  std::vector<double> queries_per_wall_s[2], queries_per_cpu_s[2];
  /// Per query.
  Samples query_wall_ms[2], query_cpu_ms[2];

  /// Records one query's time into `traced`'s half.
  void AddQuery(const Stopwatch& watch, bool traced);
};

/// Sets the metrics derived from `timings`: the end-to-end metrics for
/// an untraced run; the wall-clock figures and the tracing overhead for a
/// traced one.
void ReportTimings(const Config& config, const Timings& timings,
                   Outcome* out);

/// The three workloads (batch_build.cc, query_mix.cc, live_http.cc).
Outcome RunBatchBuild(const Config& config);
Outcome RunQueryMix(const Config& config);
Outcome RunLiveHttp(const Config& config);

}  // namespace perfbench
