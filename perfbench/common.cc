#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "base/rng.h"
#include "core/annotation.h"
#include "core/enrichment.h"
#include "core/episode.h"
#include "indoor/hierarchy.h"
#include "louvre/simulator.h"
#include "query/predicate.h"

namespace perfbench {

using namespace sitm;  // NOLINT

void Outcome::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) Fail(what);
}

void Outcome::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) std::cerr << "FAILED: " << what << "\n";
}

void Require(const Status& status, const char* what) {
  if (status.ok()) return;
  std::cerr << "perfbench: " << what << ": " << status << "\n";
  std::exit(1);
}

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map =
      Require(louvre::LouvreMap::Build(), "building the Louvre map");
  return map;
}

const indoor::Nrg& ZoneGraph() {
  return Require(Map().graph().FindLayer(Map().zone_layer()), "zone layer")
      ->graph();
}

query::QueryContext Context() {
  static const indoor::LayerHierarchy hierarchy =
      Require(Map().BuildHierarchy(), "building the layer hierarchy");
  query::QueryContext context;
  context.hierarchy = &hierarchy;
  context.graph = &Map().graph();
  return context;
}

Population Simulate(std::uint64_t seed, int visitors, int replication) {
  louvre::SimulatorOptions options;
  options.seed = seed;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  options.map_replication = replication;
  Population population;
  const Clock::time_point start = Clock::now();
  louvre::VisitSimulator simulator(&Map(), options);
  population.detections =
      Require(simulator.Generate(), "simulating visits").ToRawDetections();
  population.simulate_s = SecondsSince(start);
  return population;
}

core::PipelineOptions PipelineConfig(TaskRunner* executor) {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateFinalExit(Map().exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  options.executor = executor;
  return options;
}

live::IncrementalOptions IncrementalConfig(Duration allowed_lateness) {
  const core::PipelineOptions batch = PipelineConfig(nullptr);
  live::IncrementalOptions options;
  options.builder = batch.builder;
  options.rules = batch.rules;
  options.infer_hidden_passages = batch.infer_hidden_passages;
  options.allowed_lateness = allowed_lateness;
  return options;
}

namespace {

constexpr const char* kClassNames[kNumQueryClasses] = {
    "point", "window", "zone", "annotation", "episode", "topk"};

struct Term {
  core::AnnotationKind kind;
  const char* value;
};
constexpr Term kTerms[] = {{core::AnnotationKind::kBehavior, "stop"},
                           {core::AnnotationKind::kGoal, "leaving"}};
constexpr int kNumTerms = 2;

// Window length per class (seconds); point lookups have no window.
// Window, zone and annotation queries cover hours to a day; episode
// extraction covers three days and top-k ranks two weeks of visits, so
// those two classes are the slowest by a wide margin.
constexpr std::int64_t kWindowSeconds[kNumQueryClasses] = {
    0, 2 * 3600, 24 * 3600, 24 * 3600, 3 * 24 * 3600, 14 * 24 * 3600};

bool ParseInt(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  return kClassNames[static_cast<int>(c)];
}

std::string QuerySpec::ToParams() const {
  std::ostringstream out;
  out << "class=" << QueryClassName(cls);
  switch (cls) {
    case QueryClass::kPoint:
      out << "&object=" << object;
      return out.str();
    case QueryClass::kZone:
      out << "&cell=" << cell;
      break;
    case QueryClass::kAnnotation:
      out << "&term=" << term;
      break;
    case QueryClass::kTopK:
      out << "&probe=" << probe;
      break;
    default:
      break;
  }
  out << "&from=" << from << "&to=" << to;
  return out.str();
}

Result<QuerySpec> QuerySpec::FromParams(
    const std::vector<std::pair<std::string, std::string>>& params) {
  QuerySpec spec;
  bool have_class = false;
  for (const auto& [key, value] : params) {
    if (key == "class") {
      for (int c = 0; c < kNumQueryClasses; ++c) {
        if (value == kClassNames[c]) {
          spec.cls = static_cast<QueryClass>(c);
          have_class = true;
        }
      }
      if (!have_class) return Status::InvalidArgument("unknown class " + value);
      continue;
    }
    std::int64_t number = 0;
    if (!ParseInt(value, &number) || number < 0) {
      return Status::InvalidArgument("bad value for " + key + ": " + value);
    }
    if (key == "object") {
      spec.object = number;
    } else if (key == "cell") {
      spec.cell = number;
    } else if (key == "from") {
      spec.from = number;
    } else if (key == "to") {
      spec.to = number;
    } else if (key == "term" && number < kNumTerms) {
      spec.term = static_cast<int>(number);
    } else if (key == "probe") {
      spec.probe = static_cast<std::size_t>(number);
    } else {
      return Status::InvalidArgument("unknown parameter " + key);
    }
  }
  if (!have_class) return Status::InvalidArgument("missing class");
  return spec;
}

query::Query MakeQuery(const QuerySpec& spec,
                       const std::vector<core::SemanticTrajectory>& probes) {
  query::Query q;
  const Timestamp from(spec.from);
  const Timestamp to(spec.to);
  switch (spec.cls) {
    case QueryClass::kPoint:
      q.where = query::ObjectIs(ObjectId(spec.object));
      q.projection = query::Projection::kTrajectories;
      break;
    case QueryClass::kWindow:
      q.where = query::TimeWindow(from, to);
      q.projection = query::Projection::kIds;
      break;
    case QueryClass::kZone:
      q.where = query::And(query::TimeWindow(from, to),
                           query::InZone(CellId(spec.cell)));
      q.projection = query::Projection::kIds;
      break;
    case QueryClass::kAnnotation: {
      const Term& term = kTerms[spec.term];
      q.where = query::And(query::TimeWindow(from, to),
                           query::HasAnnotation(term.kind, term.value));
      q.projection = query::Projection::kCount;
      break;
    }
    case QueryClass::kEpisode: {
      const qsr::TimeInterval window =
          Require(qsr::TimeInterval::Make(from, to), "episode window");
      core::AnnotationSet lingering;
      lingering.Add(core::AnnotationKind::kBehavior, "lingering");
      q.episodes.push_back(
          {"long-stay", core::StayAtLeast(Duration::Minutes(10)), lingering});
      q.where = query::And(
          query::TimeWindow(from, to),
          query::EpisodeAllen("long-stay", query::AllenMask::Intersecting(),
                              window));
      q.projection = query::Projection::kEpisodes;
      q.episode_filter.label = "long-stay";
      q.episode_filter.allen =
          query::AllenConstraint{query::AllenMask::Intersecting(), window};
      break;
    }
    case QueryClass::kTopK:
      q.where = query::TimeWindow(from, to);
      q.projection = query::Projection::kTopK;
      q.top_k.k = 10;
      q.top_k.probe = &probes[spec.probe % probes.size()];
      break;
  }
  return q;
}

QueryUniverse UniverseOf(const std::vector<core::RawDetection>& detections,
                         std::size_t num_probes) {
  QueryUniverse universe;
  universe.num_probes = num_probes;
  universe.min_time = detections.front().start.seconds_since_epoch();
  universe.max_time = universe.min_time;
  for (const core::RawDetection& d : detections) {
    universe.objects.push_back(d.object.value());
    universe.min_time =
        std::min(universe.min_time, d.start.seconds_since_epoch());
    universe.max_time = std::max(universe.max_time, d.end.seconds_since_epoch());
  }
  std::sort(universe.objects.begin(), universe.objects.end());
  universe.objects.erase(
      std::unique(universe.objects.begin(), universe.objects.end()),
      universe.objects.end());
  const indoor::Nrg& wings =
      Require(Map().graph().FindLayer(Map().wing_layer()), "wing layer")
          ->graph();
  for (const indoor::CellSpace& wing : wings.cells()) {
    universe.wings.push_back(wing.id().value());
  }
  return universe;
}

std::vector<QuerySpec> MakeSequence(std::uint64_t seed,
                                    const QueryUniverse& universe,
                                    const ClassCounts& counts,
                                    const ClassCounts& pool_sizes,
                                    double skew) {
  Rng rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBounded(n));
  };
  std::vector<QuerySpec> sequence;
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const QueryClass cls = static_cast<QueryClass>(c);
    std::vector<QuerySpec> pool(pool_sizes[c]);
    for (QuerySpec& spec : pool) {
      spec.cls = cls;
      const std::int64_t length = kWindowSeconds[c];
      const std::int64_t span =
          std::max<std::int64_t>(1, universe.max_time - universe.min_time -
                                        length);
      spec.from = universe.min_time +
                  static_cast<std::int64_t>(pick(static_cast<std::size_t>(span)));
      spec.to = spec.from + length;
      switch (cls) {
        case QueryClass::kPoint:
          spec.from = spec.to = 0;
          spec.object = universe.objects[pick(universe.objects.size())];
          break;
        case QueryClass::kZone:
          spec.cell = universe.wings[pick(universe.wings.size())];
          break;
        case QueryClass::kAnnotation:
          spec.term = static_cast<int>(pick(kNumTerms));
          break;
        case QueryClass::kTopK:
          spec.probe = pick(universe.num_probes);
          break;
        default:
          break;
      }
    }
    // No cache serves episode and top-k requests, so their keys are drawn
    // uniformly: skew would only shrink the sample of their costs.
    const double exponent =
        c < static_cast<int>(QueryClass::kEpisode) ? skew : 0.0;
    std::vector<double> cumulative(pool.size());
    double total = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      total += std::pow(static_cast<double>(i + 1), -exponent);
      cumulative[i] = total;
    }
    for (std::size_t n = 0; n < counts[c]; ++n) {
      const double u = rng.NextDouble() * total;
      const std::size_t i = static_cast<std::size_t>(
          std::upper_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      sequence.push_back(pool[std::min(i, pool.size() - 1)]);
    }
  }
  for (std::size_t i = sequence.size(); i > 1; --i) {
    std::swap(sequence[i - 1], sequence[pick(i)]);
  }
  return sequence;
}

void Timings::AddQuery(const Stopwatch& watch, bool traced) {
  query_wall_ms[traced].Add(watch.wall_s() * 1e3);
  query_cpu_ms[traced].Add(watch.cpu_s() * 1e3);
}

void ReportTimings(const Config& config, const Timings& t, Outcome* out) {
  if (!config.trace) {
    out->Set("setup_s", Median(t.setup_cpu_s));
    out->Set("detections_per_cpu_s", t.detections / Median(t.build_cpu_s[0]));
    out->Set("queries_per_cpu_s", Median(t.queries_per_cpu_s[0]));
    out->Set("query_cpu_ms_p50", t.query_cpu_ms[0].Median());
    const std::optional<double> p99 = t.query_cpu_ms[0].Tail(0.99);
    out->Check(p99.has_value(), "too few queries for p99");
    out->Set("query_cpu_ms_p99", p99.value_or(0));
    out->Set("peak_rss_mb", PeakRssMb());
    return;
  }
  // Wall-clock figures pool traced and untraced work: spans cost little
  // wall time next to the machine's own variation.
  Samples wall_ms = t.query_wall_ms[0];
  wall_ms.Append(t.query_wall_ms[1]);
  std::vector<double> build_wall = t.build_wall_s[0];
  build_wall.insert(build_wall.end(), t.build_wall_s[1].begin(),
                    t.build_wall_s[1].end());
  std::vector<double> qps_wall = t.queries_per_wall_s[0];
  qps_wall.insert(qps_wall.end(), t.queries_per_wall_s[1].begin(),
                  t.queries_per_wall_s[1].end());
  out->Set("wall.setup_s", Median(t.setup_wall_s));
  out->Set("wall.detections_per_s", t.detections / Median(build_wall));
  out->Set("wall.queries_per_s", Median(qps_wall));
  out->Set("wall.query_ms_p50", wall_ms.Median());
  out->Set("wall.query_ms_p99", wall_ms.Tail(0.99).value_or(0));
  // Overhead: 1 - traced / untraced CPU throughput. Workloads that
  // build only in set-up have no traced builds and report 0.
  const bool built_traced = !t.build_cpu_s[1].empty();
  out->Set("trace.detections_per_cpu_s_overhead",
           built_traced ? 1.0 - Median(t.build_cpu_s[0]) /
                                    Median(t.build_cpu_s[1])
                        : 0.0);
  out->Set("trace.queries_per_cpu_s_overhead",
           1.0 - Median(t.queries_per_cpu_s[1]) /
                     Median(t.queries_per_cpu_s[0]));
}

void ReleaseFreedMemory() { malloc_trim(0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

SchedSample SchedWindow(const sched::Executor& executor, std::int64_t begin_ns,
                        std::int64_t end_ns) {
  SchedSample sample;
  double busy_ns = 0;
  for (const sched::TraceSpan& span : executor.trace().Spans()) {
    if (span.end_ns < begin_ns || span.begin_ns > end_ns) continue;
    if (span.kind == sched::TraceSpan::Kind::kSteal) {
      ++sample.steals;
      continue;
    }
    ++sample.tasks;
    if (span.lane < executor.num_workers()) {
      busy_ns += static_cast<double>(std::min(span.end_ns, end_ns) -
                                     std::max(span.begin_ns, begin_ns));
    }
  }
  const double window_ns = static_cast<double>(end_ns - begin_ns);
  sample.busy_frac =
      window_ns <= 0
          ? 0
          : busy_ns / (static_cast<double>(executor.num_workers()) * window_ns);
  sample.dropped = static_cast<double>(executor.trace().dropped());
  return sample;
}

}  // namespace perfbench
