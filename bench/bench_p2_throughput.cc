// P2 — batch-pipeline worker sweep and similarity-matrix throughput.
// No direct paper counterpart (§4 reports dataset shape, not wall
// clock). perfbench's batch_build times the pipeline at scale; this
// bench keeps what it cannot split: the pipeline across worker counts
// (1/2/4/hw), the blocked distance-matrix fill (sequential, by size,
// and across the worker sweep) with its self-check that the scheduled
// matrix equals the sequential one, and simulator generation on a
// replicated map. One traced pipeline run's span trace — one
// `pipeline/shard` span per shard — is dumped to BENCH_p2_trace.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/similarity.h"
#include "sched/executor.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const indoor::Nrg& ZoneGraph() {
  return Unwrap(Map().graph().FindLayer(Map().zone_layer()))->graph();
}

sched::Executor& Exec() {
  static sched::Executor executor(sched::Executor::DefaultConcurrency());
  return executor;
}

// The satellite sweep: 1, 2, 4, and hardware concurrency, deduplicated
// and sorted so each count appears once in reports and BENCH JSON.
std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2, 4,
                                  sched::Executor::DefaultConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// §4.1-shaped population scaled to `visitors`: ~38% returning, ~16%
// third visits, ~4 detections per visit (the paper's 20245/4945 ratio).
louvre::SimulatorOptions ScaledOptions(int visitors) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  options.seed = 20170119;
  return options;
}

std::vector<core::RawDetection> Detections(int visitors) {
  louvre::VisitSimulator simulator(&Map(), ScaledOptions(visitors));
  return Unwrap(simulator.Generate()).ToRawDetections();
}

core::PipelineOptions FullPipeline(sched::Executor* executor) {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateWhereAttribute("requiresTicket", "true",
                                   {core::AnnotationKind::kOther, "ticketed"}),
      core::AnnotateFinalExit(Map().exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  options.executor = executor;
  return options;
}

std::vector<core::SemanticTrajectory> Trajectories(int visitors) {
  core::BatchPipeline pipeline(FullPipeline(&Exec()));
  return Unwrap(pipeline.Run(Detections(visitors)));
}

// Exactly n trajectories (generated from a comfortably larger visitor
// population, then truncated), so matrix sizes are what the args say.
std::vector<core::SemanticTrajectory> TrajectorySample(std::size_t n) {
  static const std::vector<core::SemanticTrajectory> all = Trajectories(400);
  return std::vector<core::SemanticTrajectory>(
      all.begin(), all.begin() + std::min(n, all.size()));
}

mining::TrajectoryDistance EditCellDistance() {
  return mining::EditTrajectoryDistance(mining::UnitCellCost());
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Report() {
  Banner("P2", "batch-pipeline worker sweep and similarity-matrix "
               "throughput (no paper counterpart)");
  std::printf("  executor: %zu worker(s)\n", Exec().num_workers());

  // Span-trace artifact: one batch=10000 run at >= 2 workers, scoped by
  // Clear() so the JSON shows exactly that run's per-shard
  // build+enrich tasks overlapping across the workers.
  {
    std::vector<core::RawDetection> detections = Detections(10000);
    sched::Executor traced(
        std::max<std::size_t>(2, sched::Executor::DefaultConcurrency()));
    traced.trace().Clear();
    core::BatchPipeline pipeline(FullPipeline(&traced));
    Check(pipeline.Run(std::move(detections)).status());
    Check(traced.trace().WriteJson("BENCH_p2_trace.json"));
    std::printf("  span trace: %zu spans -> BENCH_p2_trace.json\n",
                traced.trace().Spans().size());
  }

  // Blocked distance-matrix fill, sequential vs scheduled.
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(512);
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  const auto seq_start = std::chrono::steady_clock::now();
  const std::vector<double> seq = mining::DistanceMatrix(trajectories,
                                                         distance);
  const double seq_seconds = SecondsSince(seq_start);
  mining::DistanceMatrixOptions par_options;
  par_options.executor = &Exec();
  const auto par_start = std::chrono::steady_clock::now();
  const std::vector<double> par =
      mining::DistanceMatrix(trajectories, distance, par_options);
  const double par_seconds = SecondsSince(par_start);
  Check(seq == par ? Status::OK()
                   : Status::Internal("parallel matrix mismatch"));
  const double cells = static_cast<double>(n) * static_cast<double>(n);
  std::printf(
      "  matrix n=%-4zu sequential %.3f s (%10.0f cells/s)  "
      "parallel[%zu] %.3f s (%10.0f cells/s)  speedup %.2fx\n",
      n, seq_seconds, cells / seq_seconds, Exec().num_workers(), par_seconds,
      cells / par_seconds, seq_seconds / par_seconds);
}

// Registers one Arg per sweep worker count, so every count lands as its
// own entry in the BENCH_p2.json the CI run uploads.
void WorkerSweepArgs(benchmark::internal::Benchmark* bench) {
  for (const std::size_t workers : WorkerCounts()) {
    bench->Arg(static_cast<std::int64_t>(workers));
  }
}

// The worker sweep at a fixed batch: arg = worker count (1/2/4/hw).
void BM_BatchPipelineWorkers(benchmark::State& state) {
  const std::vector<core::RawDetection> detections = Detections(1000);
  sched::Executor executor(static_cast<std::size_t>(state.range(0)));
  std::size_t trajectories = 0;
  for (auto _ : state) {
    core::BatchPipeline pipeline(FullPipeline(&executor));
    auto result = pipeline.Run(detections);
    Check(result.status());
    trajectories = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trajectories));
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(executor.num_workers()));
}
BENCHMARK(BM_BatchPipelineWorkers)
    ->Apply(WorkerSweepArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Matrix-cells/sec for the sequential fill (items = n^2 cells).
void BM_DistanceMatrixSeq(benchmark::State& state) {
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::DistanceMatrix(trajectories, distance));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  state.counters["n"] = benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_DistanceMatrixSeq)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Matrix-cells/sec for the blocked fill across the worker sweep:
// arg = worker count at a fixed n = 256.
void BM_DistanceMatrixWorkers(benchmark::State& state) {
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(256);
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  sched::Executor executor(static_cast<std::size_t>(state.range(0)));
  mining::DistanceMatrixOptions options;
  options.executor = &executor;
  options.block = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mining::DistanceMatrix(trajectories, distance, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  state.counters["n"] = benchmark::Counter(static_cast<double>(n));
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(executor.num_workers()));
}
BENCHMARK(BM_DistanceMatrixWorkers)
    ->Apply(WorkerSweepArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Simulator scale-out: generation cost with a replicated map (the
// map_replication knob benches sweep for production-like zone counts).
void BM_SimulatorReplicatedMap(benchmark::State& state) {
  louvre::SimulatorOptions options = ScaledOptions(2000);
  options.map_replication = static_cast<int>(state.range(0));
  for (auto _ : state) {
    louvre::VisitSimulator simulator(&Map(), options);
    benchmark::DoNotOptimize(Unwrap(simulator.Generate()));
  }
}
BENCHMARK(BM_SimulatorReplicatedMap)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
