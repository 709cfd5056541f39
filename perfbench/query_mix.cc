// query_mix: read-only serving. Set-up builds a store from the seeded
// population (the batch path once, clustered by start time the way an
// event log arrives) and computes every request's answer in memory.
// One client then runs a fixed, seeded sequence of the six query
// classes against one EventStoreReader through a QueryResultCache of
// default capacity, pass after pass, each pass with a fresh cache.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "storage/event_store.h"

namespace perfbench {

using namespace sitm;  // NOLINT

namespace {

// ~1.9 * 10^5 detections over the one real map (zone queries need its
// hierarchy).
constexpr int kVisitors = 30000;
constexpr std::size_t kProbes = 16;
constexpr int kMinPasses = 2;

// Requests per pass, cheapest class first. The cumulative shares are
// 36, 66, 79, 90, 97 and 100%: p50 falls among the point and window
// lookups and p99 in the middle of top-k, away from every class
// boundary.
const ClassCounts kCounts = {360, 300, 130, 110, 70, 30};
// Distinct keys per class. The 448 cacheable keys (point, window,
// zone, annotation) are seven times the cache's default capacity of 64,
// so the skewed draws both hit and evict; about 30% of all requests
// hit, which keeps p50 clear of the boundary between hits and misses.
const ClassCounts kPools = {192, 128, 64, 64, 32, 48};
constexpr double kSkew = 0.8;

struct Fixture {
  std::vector<core::SemanticTrajectory> trajectories;
  std::vector<core::SemanticTrajectory> probes;
  std::vector<QuerySpec> sequence;
  std::map<std::string, std::string> reference;
  std::optional<storage::EventStoreReader> reader;
};

}  // namespace

Outcome RunQueryMix(const Config& config) {
  Outcome out;
  Timings timings;
  sched::Executor executor(kWorkers);
  query::ExecutorOptions options;
  options.executor = &executor;
  const std::string path = config.workdir + "/query_mix.evst";

  // ---- Set-up, repeated: simulate, build, write, open, answer in memory.
  Fixture fixture;
  std::vector<double> simulate_s, build_s, write_s, open_s, tasks, steals,
      busy;
  double dropped = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch setup_watch;
    fixture = Fixture();
    std::filesystem::remove(path);
    Population population = Simulate(config.seed, kVisitors, 1);
    simulate_s.push_back(population.simulate_s);
    timings.detections = static_cast<double>(population.detections.size());
    const QueryUniverse universe =
        UniverseOf(population.detections, kProbes);

    executor.trace().Clear();
    const Stopwatch queryable_watch;
    const Clock::time_point build_start = Clock::now();
    const std::int64_t begin_ns = executor.NowNs();
    core::BatchPipeline pipeline(PipelineConfig(&executor));
    fixture.trajectories =
        Require(pipeline.Run(std::move(population.detections)), "pipeline");
    const std::int64_t end_ns = executor.NowNs();
    build_s.push_back(SecondsSince(build_start));
    const SchedSample sched = SchedWindow(executor, begin_ns, end_ns);
    tasks.push_back(sched.tasks);
    steals.push_back(sched.steals);
    busy.push_back(sched.busy_frac);
    dropped = std::max(dropped, sched.dropped);

    std::stable_sort(fixture.trajectories.begin(), fixture.trajectories.end(),
                     [](const core::SemanticTrajectory& a,
                        const core::SemanticTrajectory& b) {
                       return a.start() < b.start();
                     });
    const Clock::time_point write_start = Clock::now();
    {
      storage::WriterOptions writer_options;
      writer_options.executor = &executor;
      auto writer = Require(
          storage::EventStoreWriter::Create(
              path, storage::StoreKind::kTrajectories, writer_options),
          "create store");
      Require(writer.Append(fixture.trajectories), "append");
      Require(writer.Finish(), "finish");
    }
    write_s.push_back(SecondsSince(write_start));
    const Clock::time_point open_start = Clock::now();
    fixture.reader = Require(storage::EventStoreReader::Open(path), "open");
    open_s.push_back(SecondsSince(open_start));
    // Set-up's build is this workload's batch path: detections until
    // they can be queried.
    timings.build_wall_s[0].push_back(queryable_watch.wall_s());
    timings.build_cpu_s[0].push_back(queryable_watch.cpu_s());

    Rng rng(config.seed ^ 0x9E0BE5ULL);
    for (std::size_t p = 0; p < kProbes; ++p) {
      fixture.probes.push_back(fixture.trajectories[rng.NextBounded(
          fixture.trajectories.size())]);
    }
    fixture.sequence =
        MakeSequence(config.seed, universe, kCounts, kPools, kSkew);
    query::QueryExecutor in_memory(Context(), options);
    for (const QuerySpec& spec : fixture.sequence) {
      std::string& answer = fixture.reference[spec.ToParams()];
      if (!answer.empty()) continue;
      answer = Require(in_memory.Run(MakeQuery(spec, fixture.probes),
                                     fixture.trajectories),
                       "in-memory reference")
                   .Fingerprint();
    }
    timings.setup_wall_s.push_back(setup_watch.wall_s());
    timings.setup_cpu_s.push_back(setup_watch.cpu_s());
    ReleaseFreedMemory();
  }
  const storage::EventStoreReader& reader = *fixture.reader;
  const std::size_t pass_size = fixture.sequence.size();

  // ---- Warm-up pass over a cache of its own.
  {
    query::QueryResultCache warm;
    query::ExecutorOptions warm_options = options;
    warm_options.cache = &warm;
    query::QueryExecutor warm_executor(Context(), warm_options);
    for (const QuerySpec& spec : fixture.sequence) {
      Require(warm_executor.Run(MakeQuery(spec, fixture.probes), reader)
                  .status(),
              "warm-up query");
    }
  }

  // ---- Timed passes, each over a fresh cache.
  Samples class_ms[kNumQueryClasses];
  Samples plan_us;
  std::optional<query::QueryResultCache::Stats> first_cache;
  double blocks_scanned = 0, blocks_total = 0, rows_scanned = 0, matched = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  for (int pass = 0; pass < kMinPasses || Clock::now() < deadline; ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    query::QueryResultCache cache;
    query::ExecutorOptions pass_options = options;
    pass_options.cache = &cache;
    query::QueryExecutor query_executor(Context(), pass_options);
    double pass_wall_s = 0, pass_cpu_s = 0;
    for (const QuerySpec& spec : fixture.sequence) {
      const query::Query q = MakeQuery(spec, fixture.probes);
      if (traced) {
        const query::Predicate bound =
            Require(q.where.Bind(query_executor.context()), "bind");
        const Clock::time_point plan_start = Clock::now();
        const query::QueryPlan plan = query::Plan(bound);
        static_cast<void>(query::PlanBlocks(reader, plan.pushdown));
        plan_us.Add(SecondsSince(plan_start) * 1e6);
      }
      const Stopwatch watch;
      const Result<query::QueryResult> result = query_executor.Run(q, reader);
      const double wall_s = watch.wall_s(), cpu_s = watch.cpu_s();
      out.Check(result.ok() &&
                    result->Fingerprint() == fixture.reference[spec.ToParams()],
                std::string(QueryClassName(spec.cls)) +
                    " query differs from the in-memory answer: " +
                    spec.ToParams());
      if (!result.ok()) continue;
      timings.AddQuery(watch, traced);
      pass_wall_s += wall_s;
      pass_cpu_s += cpu_s;
      if (traced) class_ms[static_cast<int>(spec.cls)].Add(wall_s * 1e3);
      if (pass == 0) {
        blocks_scanned += static_cast<double>(result->stats.blocks_scanned);
        blocks_total += static_cast<double>(result->stats.blocks_total);
        rows_scanned += static_cast<double>(result->stats.rows_scanned);
        matched += static_cast<double>(result->stats.trajectories_matched);
      }
    }
    const double n = static_cast<double>(pass_size);
    timings.queries_per_wall_s[traced].push_back(n / pass_wall_s);
    timings.queries_per_cpu_s[traced].push_back(n / pass_cpu_s);
    const query::QueryResultCache::Stats stats = cache.stats();
    if (!first_cache) first_cache = stats;
    out.Check(stats.hits == first_cache->hits &&
                  stats.evictions == first_cache->evictions,
              "cache counts differ between passes");
    ReleaseFreedMemory();
  }

  ReportTimings(config, timings, &out);
  out.Set("store_bytes_per_detection",
          static_cast<double>(reader.file_bytes()) / timings.detections);
  if (!config.trace) {
    std::filesystem::remove(path);
    return out;
  }

  out.Set("louvre.simulate_s", Median(simulate_s));
  out.Set("core.pipeline_ms_p50", Median(build_s) * 1e3);
  out.Set("core.trajectories",
          static_cast<double>(fixture.trajectories.size()));
  out.Set("sched.tasks", Median(tasks));
  out.Set("sched.steals", Median(steals));
  out.Set("sched.busy_frac", Median(busy));
  out.Set("sched.trace_dropped", dropped);
  out.Check(dropped == 0, "executor trace dropped spans");
  out.Set("storage.write_ms_p50", Median(write_s) * 1e3);
  out.Set("storage.open_ms_p50", Median(open_s) * 1e3);
  out.Set("storage.bytes", static_cast<double>(reader.file_bytes()));
  {
    std::vector<double> rates;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      const auto all = Require(reader.ReadTrajectories(), "full scan");
      rates.push_back(static_cast<double>(reader.rows()) / SecondsSince(start));
      out.Check(all.size() == fixture.trajectories.size(), "full scan count");
    }
    out.Set("storage.decode_rows_per_s", Median(rates));
  }
  for (int c = 0; c < kNumQueryClasses; ++c) {
    out.Set(std::string("query.") + QueryClassName(static_cast<QueryClass>(c)) +
                "_ms_p50",
            class_ms[c].Median());
  }
  out.Set("query.plan_us_p50", plan_us.Median());
  out.Set("query.blocks_scanned_frac", blocks_scanned / blocks_total);
  out.Set("query.rows_scanned_per_match", rows_scanned / matched);
  const double lookups =
      static_cast<double>(first_cache->hits + first_cache->misses);
  out.Set("query.cache_hit_ratio",
          static_cast<double>(first_cache->hits) / lookups);
  out.Set("query.cache_evictions", static_cast<double>(first_cache->evictions));
  std::filesystem::remove(path);
  return out;
}

}  // namespace perfbench
