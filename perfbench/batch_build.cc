// batch_build: the analyst's batch path, repeated end to end. One
// repetition is BatchPipeline::Run over about 10^6 simulated detections,
// an EventStore write, a reopen with full checksum verification and one
// check query; the clock stops when the check query answers. Each
// repetition then serves a pass of point lookups against the fresh
// store (the analyst's first questions), which is where this
// workload's query metrics come from.
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/event_store.h"

namespace perfbench {

using namespace sitm;  // NOLINT

namespace {

// ~10^6 detections: 160k visitors over 8 map replicas.
constexpr int kVisitors = 160000;
constexpr int kReplication = 8;
// Lookups per repetition. Every tenth is a group lookup of kGroup
// visitors; the rest are single-visitor lookups. Group lookups decode
// about kGroup blocks instead of one, so p99 falls inside them, where
// the cost is steady, rather than on the edge of the single lookups.
// With kMinReps timed repetitions the pooled latencies leave more than
// 10 samples beyond p99.
constexpr std::size_t kLookups = 128;
constexpr std::size_t kGroup = 32;
constexpr int kMinReps = 8;

std::vector<query::Query> LookupPass(std::uint64_t seed,
                                     const QueryUniverse& universe) {
  Rng rng(seed ^ 0xB47C4B01D5ULL);
  const auto object = [&] {
    return ObjectId(universe.objects[rng.NextBounded(universe.objects.size())]);
  };
  std::vector<query::Query> pass;
  for (std::size_t i = 0; i < kLookups; ++i) {
    query::Query q;
    if (i % 10 == 9) {
      std::vector<ObjectId> group;
      for (std::size_t j = 0; j < kGroup; ++j) group.push_back(object());
      q.where = query::ObjectIn(std::move(group));
      q.projection = query::Projection::kIds;
    } else {
      q.where = query::ObjectIs(object());
      q.projection = query::Projection::kTrajectories;
    }
    pass.push_back(std::move(q));
  }
  return pass;
}

}  // namespace

Outcome RunBatchBuild(const Config& config) {
  Outcome out;
  Timings timings;
  sched::Executor executor(kWorkers);

  // ---- Set-up, repeated: the seeded population and the lookup pass.
  Population population;
  std::vector<query::Query> lookup_queries;
  std::vector<double> simulate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    population = Simulate(config.seed, kVisitors, kReplication);
    lookup_queries =
        LookupPass(config.seed, UniverseOf(population.detections, 0));
    simulate_s.push_back(population.simulate_s);
    timings.setup_wall_s.push_back(watch.wall_s());
    timings.setup_cpu_s.push_back(watch.cpu_s());
    ReleaseFreedMemory();
  }
  const std::vector<core::RawDetection>& detections = population.detections;
  timings.detections = static_cast<double>(detections.size());

  const std::string path = config.workdir + "/batch.evst";
  query::ExecutorOptions query_options;
  query_options.executor = &executor;
  query::QueryExecutor query_executor(Context(), query_options);
  const query::Query& check_query = lookup_queries.front();
  std::vector<std::string> lookup_reference;
  std::uint64_t reference_bytes = 0;
  std::size_t reference_trajectories = 0;

  SpanLog spans;
  std::vector<double> tasks, steals, busy;
  double dropped = 0;
  double blocks_scanned = 0, blocks_total = 0;
  double rows_scanned = 0, matched = 0;
  Samples plan_us;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  // Repetition 0 warms caches and the allocator and is not recorded.
  for (int rep = 0; rep <= kMinReps || Clock::now() < deadline; ++rep) {
    const bool warmup = rep == 0;
    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured under the same conditions.
    const bool traced = config.trace && rep % 2 == 0 && !warmup;
    SpanLog* log = traced ? &spans : nullptr;
    std::filesystem::remove(path);
    executor.trace().Clear();
    std::vector<core::RawDetection> input = detections;

    const Stopwatch rep_watch;
    const int rep_span = log ? log->Open("batch.rep", -1) : -1;
    core::BatchPipeline pipeline(PipelineConfig(&executor));
    const std::int64_t begin_ns = executor.NowNs();
    Result<std::vector<core::SemanticTrajectory>> built = [&] {
      ScopedSpan span(log, "core.pipeline", rep_span);
      return pipeline.Run(std::move(input));
    }();
    const std::int64_t end_ns = executor.NowNs();
    if (!built.ok()) {
      out.Check(false, "pipeline: " + built.status().ToString());
      continue;
    }
    const std::vector<core::SemanticTrajectory>& trajectories = *built;
    Status written = [&] {
      ScopedSpan span(log, "storage.write", rep_span);
      storage::WriterOptions options;
      options.executor = &executor;
      auto writer = storage::EventStoreWriter::Create(
          path, storage::StoreKind::kTrajectories, options);
      if (!writer.ok()) return writer.status();
      Status status = writer->Append(trajectories);
      return status.ok() ? writer->Finish() : status;
    }();
    Result<storage::EventStoreReader> reader = [&] {
      ScopedSpan span(log, "storage.open", rep_span);
      return written.ok() ? storage::EventStoreReader::Open(path)
                          : Result<storage::EventStoreReader>(written);
    }();
    const Status verified = [&] {
      ScopedSpan span(log, "storage.verify", rep_span);
      return reader.ok() ? reader->VerifyChecksums() : reader.status();
    }();
    Result<query::QueryResult> checked = [&] {
      ScopedSpan span(log, "query.check", rep_span);
      return verified.ok() ? query_executor.Run(check_query, *reader)
                           : Result<query::QueryResult>(verified);
    }();
    const double rep_wall_s = rep_watch.wall_s();
    const double rep_cpu_s = rep_watch.cpu_s();
    if (log) log->Close(rep_span);

    // ---- Answer checks (untimed).
    out.Check(verified.ok(), "store write/open/verify: " + verified.ToString());
    out.Check(checked.ok(), "check query: " + checked.status().ToString());
    if (!verified.ok() || !checked.ok()) continue;
    if (lookup_reference.empty()) {
      // In-memory answers of every lookup, from the first repetition.
      for (const query::Query& q : lookup_queries) {
        auto in_memory = query_executor.Run(q, trajectories);
        Require(in_memory.status(), "in-memory reference");
        lookup_reference.push_back(in_memory->Fingerprint());
      }
      reference_bytes = reader->file_bytes();
      reference_trajectories = trajectories.size();
    }
    out.Check(checked->Fingerprint() == lookup_reference.front(),
              "check query differs from the in-memory answer");
    out.Check(reader->file_bytes() == reference_bytes &&
                  trajectories.size() == reference_trajectories,
              "repetitions built different stores");
    if (!warmup) {
      timings.build_wall_s[traced].push_back(rep_wall_s);
      timings.build_cpu_s[traced].push_back(rep_cpu_s);
    }

    if (traced) {
      const std::vector<Span> all = spans.spans();
      const double coverage = CoverageFraction(all, rep_span);
      out.Check(coverage >= 0.95, "stage spans cover only " +
                                      std::to_string(coverage) +
                                      " of the repetition");
      const SchedSample sample = SchedWindow(executor, begin_ns, end_ns);
      tasks.push_back(sample.tasks);
      steals.push_back(sample.steals);
      busy.push_back(sample.busy_frac);
      dropped = std::max(dropped, sample.dropped);
    }

    // ---- The lookup pass.
    double pass_wall_s = 0, pass_cpu_s = 0;
    for (std::size_t i = 0; i < lookup_queries.size(); ++i) {
      const query::Query& q = lookup_queries[i];
      if (traced) {
        const query::Predicate bound =
            Require(q.where.Bind(query_executor.context()), "bind");
        const Clock::time_point plan_start = Clock::now();
        const query::QueryPlan plan = query::Plan(bound);
        static_cast<void>(query::PlanBlocks(*reader, plan.pushdown));
        plan_us.Add(SecondsSince(plan_start) * 1e6);
      }
      const Stopwatch watch;
      Result<query::QueryResult> result = [&] {
        ScopedSpan span(log, i % 10 == 9 ? "query.group" : "query.point");
        return query_executor.Run(q, *reader);
      }();
      const double wall_s = watch.wall_s(), cpu_s = watch.cpu_s();
      out.Check(result.ok() && result->Fingerprint() == lookup_reference[i],
                "lookup differs from the in-memory answer");
      if (!result.ok() || warmup) continue;
      timings.AddQuery(watch, traced);
      pass_wall_s += wall_s;
      pass_cpu_s += cpu_s;
      if (traced) {
        blocks_scanned += static_cast<double>(result->stats.blocks_scanned);
        blocks_total += static_cast<double>(result->stats.blocks_total);
        rows_scanned += static_cast<double>(result->stats.rows_scanned);
        matched += static_cast<double>(result->stats.trajectories_matched);
      }
    }
    if (!warmup) {
      const double n = static_cast<double>(kLookups);
      timings.queries_per_wall_s[traced].push_back(n / pass_wall_s);
      timings.queries_per_cpu_s[traced].push_back(n / pass_cpu_s);
    }    ReleaseFreedMemory();
  }

  ReportTimings(config, timings, &out);
  out.Set("store_bytes_per_detection",
          static_cast<double>(reference_bytes) / timings.detections);
  if (!config.trace) {
    std::filesystem::remove(path);
    return out;
  }

  out.Set("louvre.simulate_s", Median(simulate_s));
  out.Set("core.pipeline_ms_p50", spans.Durations("core.pipeline").Median() * 1e3);
  out.Set("core.trajectories", static_cast<double>(reference_trajectories));
  out.Set("sched.tasks", Median(tasks));
  out.Set("sched.steals", Median(steals));
  out.Set("sched.busy_frac", Median(busy));
  out.Set("sched.trace_dropped", dropped);
  out.Check(dropped == 0, "executor trace dropped spans");
  out.Set("storage.write_ms_p50", spans.Durations("storage.write").Median() * 1e3);
  out.Set("storage.open_ms_p50", spans.Durations("storage.open").Median() * 1e3);
  out.Set("storage.bytes", static_cast<double>(reference_bytes));
  out.Set("query.point_ms_p50", spans.Durations("query.point").Median() * 1e3);
  out.Set("query.plan_us_p50", plan_us.Median());
  out.Set("query.blocks_scanned_frac", blocks_scanned / blocks_total);
  out.Set("query.rows_scanned_per_match", rows_scanned / matched);
  {
    // A full decode of the last repetition's store.
    const auto reader = Require(storage::EventStoreReader::Open(path), "open");
    const Clock::time_point start = Clock::now();
    const auto all = Require(reader.ReadTrajectories(), "full scan");
    out.Set("storage.decode_rows_per_s",
            static_cast<double>(reader.rows()) / SecondsSince(start));
    out.Check(all.size() == reference_trajectories, "full scan count");
  }
  std::filesystem::remove(path);
  return out;
}

}  // namespace perfbench
