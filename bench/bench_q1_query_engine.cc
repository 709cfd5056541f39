// Q1 — the semantic trajectory query engine over a 10^4-visitor store.
// A self-check gate, not a timing suite: perfbench's query_mix times
// the query classes on a store and live_http the in-memory path.
// Report() prints the deterministic pushdown counts (secondary
// object-id index vs footer min/max pruning vs full scan, annotation
// bitmaps vs footer stats) and exits 1 unless the object point lookup
// prunes >= 10x, answers are byte-identical at every worker count in
// memory and on the store, the bitmaps scan strictly fewer blocks with
// the same answer, a cache hit equals cold execution, and top-k equals
// its exhaustive oracle. The one timing left is the top-k worker sweep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/patterns.h"
#include "mining/similarity.h"
#include "query/executor.h"
#include "query/result_cache.h"
#include "query/predicate.h"
#include "sched/executor.h"
#include "storage/event_store.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

constexpr int kVisitors = 10000;
/// Builder-ordered store (by object, then start — what BatchPipeline
/// emits): block object ranges partition, so min/max pruning is already
/// sharp. Used for the determinism and acceptance checks.
const char kIndexedStorePath[] = "BENCH_q1_store.evst";
/// Time-ordered store (the natural event-log ingest order): one
/// object's trajectories scatter across blocks and block object ranges
/// overlap almost totally, which is exactly the case the secondary
/// object-id index exists for (posting lists vs the blocks footer
/// min/max stats alone would touch).
const char kTimeStorePath[] = "BENCH_q1_store_time.evst";

// The satellite sweep: 1, 2, 4, and hardware concurrency, deduplicated
// and sorted so each count appears once in reports and BENCH JSON.
std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2, 4,
                                  sched::Executor::DefaultConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const indoor::LayerHierarchy& Hierarchy() {
  static const indoor::LayerHierarchy hierarchy =
      Unwrap(Map().BuildHierarchy());
  return hierarchy;
}

query::QueryContext Context() {
  query::QueryContext context;
  context.hierarchy = &Hierarchy();
  context.graph = &Map().graph();
  return context;
}

/// The 10^4-visitor workload, built once per process.
const std::vector<core::SemanticTrajectory>& Trajectories() {
  static const std::vector<core::SemanticTrajectory>* trajectories = [] {
    louvre::SimulatorOptions options;
    options.num_visitors = kVisitors;
    options.num_returning = kVisitors * 2 / 5;
    options.num_third_visits = kVisitors / 6;
    options.num_detections =
        (kVisitors + options.num_returning + options.num_third_visits) * 4;
    louvre::VisitSimulator simulator(&Map(), options);
    louvre::VisitDataset dataset = Unwrap(simulator.Generate());
    core::PipelineOptions pipeline_options;
    pipeline_options.builder.graph =
        &Unwrap(Map().graph().FindLayer(Map().zone_layer()))->graph();
    core::BatchPipeline pipeline(pipeline_options);
    return new std::vector<core::SemanticTrajectory>(
        Unwrap(pipeline.Run(dataset.ToRawDetections())));
  }();
  return *trajectories;
}

void WriteStore(const std::string& path,
                const std::vector<core::SemanticTrajectory>& trajectories) {
  storage::WriterOptions options;
  options.rows_per_block = 1024;
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options));
  Check(writer.Append(trajectories));
  Check(writer.Finish());
}

storage::EventStoreReader OpenStore(const std::string& path) {
  static bool written = false;
  if (!written) {
    WriteStore(kIndexedStorePath, Trajectories());
    std::vector<core::SemanticTrajectory> by_time = Trajectories();
    std::stable_sort(by_time.begin(), by_time.end(),
                     [](const core::SemanticTrajectory& a,
                        const core::SemanticTrajectory& b) {
                       if (a.start() != b.start()) return a.start() < b.start();
                       return a.id() < b.id();
                     });
    WriteStore(kTimeStorePath, by_time);
    written = true;
  }
  return Unwrap(storage::EventStoreReader::Open(path));
}

ObjectId ProbeObject() {
  return Trajectories()[Trajectories().size() / 2].object();
}

/// Blocks that footer min/max stats alone admit for `scan` — what a
/// reader without the object index or the annotation bitmaps touches.
std::vector<std::size_t> FooterStatsBlocks(
    const storage::EventStoreReader& reader, const storage::ScanOptions& scan) {
  std::vector<std::size_t> blocks;
  for (std::size_t i = 0; i < reader.num_blocks(); ++i) {
    if (reader.BlockMatches(i, scan)) blocks.push_back(i);
  }
  return blocks;
}

query::Query PointLookup() {
  query::Query q;
  q.where = query::ObjectIs(ProbeObject());
  q.projection = query::Projection::kTrajectories;
  return q;
}

/// The exhaustive top-k answer's fingerprint: EditSimilarity on every
/// match of `q`, ranked by (similarity desc, id asc), cut at k.
std::string TopKOracle(const query::Query& q) {
  const query::Predicate where = Unwrap(q.where.Bind(Context()));
  const std::vector<CellId> probe = mining::CellSequenceOf(*q.top_k.probe);
  query::QueryResult expected;
  expected.projection = query::Projection::kTopK;
  for (const core::SemanticTrajectory& t : Trajectories()) {
    if (!where.MatchesTrajectory(t)) continue;
    expected.count += 1;
    expected.top_k.push_back(
        {t.id(), mining::EditSimilarity(probe, mining::CellSequenceOf(t),
                                        mining::UnitCellCost())});
  }
  std::sort(expected.top_k.begin(), expected.top_k.end(),
            [](const query::ScoredTrajectory& a,
               const query::ScoredTrajectory& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.trajectory < b.trajectory;
            });
  if (expected.top_k.size() > q.top_k.k) expected.top_k.resize(q.top_k.k);
  return expected.Fingerprint();
}

/// The timed top-k query.
query::Query TopKQuery() {
  query::Query q;
  q.projection = query::Projection::kTopK;
  q.top_k.k = 10;
  q.top_k.probe = &Trajectories().front();
  return q;
}

/// Checks the top-k query against the exhaustive oracle, in memory and
/// on `store` (which holds the same trajectories under the same ids);
/// exits 1 on a mismatch. The timed probe's cell sequence is common, so
/// its top 10 all tie at similarity 1; the same query probed with the
/// longest trace also reaches the scores the running cutoff prunes.
void CheckTopK(const query::QueryExecutor& executor,
               const storage::EventStoreReader& store) {
  const core::SemanticTrajectory& longest = *std::max_element(
      Trajectories().begin(), Trajectories().end(),
      [](const core::SemanticTrajectory& a,
         const core::SemanticTrajectory& b) {
        return a.trace().size() < b.trace().size();
      });
  query::Query q = TopKQuery();
  for (const core::SemanticTrajectory* probe : {q.top_k.probe, &longest}) {
    q.top_k.probe = probe;
    const std::string expected = TopKOracle(q);
    const bool in_memory =
        Unwrap(executor.Run(q, Trajectories())).Fingerprint() == expected;
    const bool from_store =
        Unwrap(executor.Run(q, store)).Fingerprint() == expected;
    if (!in_memory || !from_store) {
      std::fprintf(stderr,
                   "BENCH Q1 FAILED: top-k answer %s differs from the "
                   "exhaustive oracle\n",
                   in_memory ? "from the store" : "in memory");
      std::exit(1);
    }
  }
}

void Report() {
  Banner("Q1", "semantic trajectory query engine (no paper counterpart; "
               "the serving layer the model argues for)");
  const auto& trajectories = Trajectories();
  const auto indexed = OpenStore(kIndexedStorePath);
  const auto time_indexed = OpenStore(kTimeStorePath);
  std::printf("  workload: %d visitors -> %zu trajectories, %llu tuples, "
              "%zu blocks\n",
              kVisitors, trajectories.size(),
              static_cast<unsigned long long>(indexed.rows()),
              indexed.num_blocks());

  query::QueryExecutor executor(Context());

  // -- Acceptance: object point lookup prunes >= 10x vs full scan. ----
  const query::Query lookup = PointLookup();
  const auto indexed_result = Unwrap(executor.Run(lookup, indexed));
  query::Query full;
  full.projection = query::Projection::kCount;
  const auto full_result = Unwrap(executor.Run(full, indexed));
  Row("point lookup, tuples scanned",
      "(full scan = " + std::to_string(full_result.stats.rows_scanned) + ")",
      std::to_string(indexed_result.stats.rows_scanned) + " of " +
          std::to_string(indexed_result.stats.rows_total));
  const double pruning =
      static_cast<double>(full_result.stats.rows_scanned) /
      static_cast<double>(indexed_result.stats.rows_scanned == 0
                              ? 1
                              : indexed_result.stats.rows_scanned);
  std::printf("  pruning ratio (full / indexed): %.1fx\n", pruning);
  if (pruning < 10.0) {
    std::fprintf(stderr,
                 "BENCH Q1 FAILED: object point lookup scanned only %.1fx "
                 "fewer tuples than a full scan (acceptance needs >= 10x)\n",
                 pruning);
    std::exit(1);
  }

  // -- Index ablation on the time-ordered store: the posting lists vs
  //    the blocks footer stats alone admit. min/max pruning is helpless
  //    when one object's visits scatter across the collection window.
  const auto scattered_indexed = Unwrap(executor.Run(lookup, time_indexed));
  std::uint64_t min_max_rows = 0;
  const auto min_max_blocks = FooterStatsBlocks(
      time_indexed, storage::ScanOptions::ForObject(ProbeObject()));
  for (const std::size_t b : min_max_blocks) {
    min_max_rows += time_indexed.block(b).rows;
  }
  Row("time-ordered store, tuples scanned",
      "(index off = " + std::to_string(min_max_rows) + ")",
      std::to_string(scattered_indexed.stats.rows_scanned) + " indexed");
  Row("time-ordered store, blocks scanned",
      "(of " + std::to_string(time_indexed.num_blocks()) + ")",
      std::to_string(scattered_indexed.stats.blocks_scanned) +
          " indexed, " + std::to_string(min_max_blocks.size()) + " min/max");

  // -- Determinism: workers {1, 2, 4, hw} x {in-memory, store}, and the
  //    top-k answer against the exhaustive oracle at each of them. -----
  const std::string reference =
      Unwrap(executor.Run(lookup, trajectories)).Fingerprint();
  CheckTopK(executor, indexed);
  for (const std::size_t workers : WorkerCounts()) {
    sched::Executor sweep_executor(workers);
    query::ExecutorOptions options;
    options.executor = &sweep_executor;
    query::QueryExecutor scheduled(Context(), options);
    const std::string in_memory =
        Unwrap(scheduled.Run(lookup, trajectories)).Fingerprint();
    const std::string from_store =
        Unwrap(scheduled.Run(lookup, indexed)).Fingerprint();
    if (in_memory != reference || from_store != reference) {
      std::fprintf(stderr,
                   "BENCH Q1 FAILED: query results not byte-identical at "
                   "%zu workers\n",
                   workers);
      std::exit(1);
    }
    CheckTopK(scheduled, indexed);
  }
  Row("determinism (workers 1/2/4/hw, mem vs store)", "byte-identical",
      "byte-identical");
  Row("top-k (workers 1/2/4/hw, mem vs store)", "exhaustive oracle",
      "identical");

  // -- Paper-shaped query cardinalities. ------------------------------
  const auto& wing_cells =
      Unwrap(Map().graph().FindLayer(Map().wing_layer()))->graph().cells();
  query::Query in_wing;
  in_wing.where = query::InZone(wing_cells.front().id());
  in_wing.projection = query::Projection::kCount;
  const auto wing_count = Unwrap(executor.Run(in_wing, indexed));
  Row("visits through " +
          Unwrap(Map().CellName(wing_cells.front().id())),
      "-", std::to_string(wing_count.count) + " of " +
               std::to_string(trajectories.size()));

  // -- Annotation-bitmap ablation: an annotation predicate on a v3
  //    store, bitmap-pruned blocks vs the blocks footer stats alone
  //    admit (every block: the predicate names no object or time). The
  //    simulator pipeline attaches no tuple annotations, so mark a small
  //    cluster of trajectories with a rare behavior — the selective-term
  //    case the bitmaps exist for.
  auto annotated = trajectories;
  const core::SemanticAnnotation rare{core::AnnotationKind::kBehavior,
                                      "vip"};
  for (std::size_t i = 0; i < 50 && i < annotated.size(); ++i) {
    annotated[i].mutable_trace().mutable_intervals()[0].annotations.Add(
        rare.kind, rare.value);
  }
  const char kBitmapPath[] = "BENCH_q1_bitmap_v3.evst";
  WriteStore(kBitmapPath, annotated);
  const auto bitmap_reader =
      Unwrap(storage::EventStoreReader::Open(kBitmapPath));

  query::Query rare_query;
  rare_query.where = query::HasAnnotation(rare.kind, rare.value);
  rare_query.projection = query::Projection::kIds;
  const auto bitmap_result = Unwrap(executor.Run(rare_query, bitmap_reader));
  const std::size_t footer_blocks =
      FooterStatsBlocks(bitmap_reader, storage::ScanOptions{}).size();
  std::printf("\n  annotation-bitmap ablation (rare term, same block "
              "geometry):\n");
  std::printf("    footer stats only: %zu of %zu blocks admitted\n",
              footer_blocks, bitmap_reader.num_blocks());
  std::printf("    v3 bitmaps:        %llu of %zu blocks scanned\n",
              static_cast<unsigned long long>(
                  bitmap_result.stats.blocks_scanned),
              bitmap_reader.num_blocks());
  if (bitmap_result.Fingerprint() !=
      Unwrap(executor.Run(rare_query, annotated)).Fingerprint()) {
    std::fprintf(stderr, "BENCH Q1 FAILED: annotation query results differ "
                         "between the v3 store and in-memory execution\n");
    std::exit(1);
  }
  if (bitmap_result.stats.blocks_scanned >= footer_blocks) {
    std::fprintf(stderr,
                 "BENCH Q1 FAILED: v3 annotation query scanned %llu blocks, "
                 "footer stats admit %zu (acceptance needs strictly fewer)\n",
                 static_cast<unsigned long long>(
                     bitmap_result.stats.blocks_scanned),
                 footer_blocks);
    std::exit(1);
  }

  // -- Query-result cache: cold vs cached q/s on the point lookup, and
  //    the hit result must be byte-identical to the cold one.
  query::QueryResultCache cache(8);
  query::ExecutorOptions cached_options;
  cached_options.cache = &cache;
  query::QueryExecutor cached_executor(Context(), cached_options);
  const auto cold_start = std::chrono::steady_clock::now();
  const auto cold = Unwrap(cached_executor.Run(lookup, indexed));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cold_start)
          .count();
  constexpr int kWarmRuns = 1000;
  const auto warm_start = std::chrono::steady_clock::now();
  std::string warm_fingerprint;
  for (int i = 0; i < kWarmRuns; ++i) {
    warm_fingerprint = Unwrap(cached_executor.Run(lookup, indexed))
                           .Fingerprint();
  }
  const double warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    warm_start)
          .count();
  if (warm_fingerprint != cold.Fingerprint() ||
      warm_fingerprint != reference) {
    std::fprintf(stderr, "BENCH Q1 FAILED: cached result not byte-identical "
                         "to cold execution\n");
    std::exit(1);
  }
  std::printf("  result cache: cold %.0f q/s, cached %.0f q/s (%.0fx; "
              "%llu hits, %llu misses)\n",
              1.0 / cold_seconds,
              static_cast<double>(kWarmRuns) / warm_seconds,
              (static_cast<double>(kWarmRuns) / warm_seconds) *
                  cold_seconds,
              static_cast<unsigned long long>(cache.stats().hits),
              static_cast<unsigned long long>(cache.stats().misses));
  Row("cache hit vs cold execution", "byte-identical", "byte-identical");
}

// The top-k worker sweep: arg = worker count (1/2/4/hw), so every count
// gets its own entry in the BENCH_q1.json the CI run uploads. Report()
// has checked the answer against the oracle at each count.
void BM_QueryTopKSimilarityScheduled(benchmark::State& state) {
  sched::Executor sched_executor(static_cast<std::size_t>(state.range(0)));
  query::ExecutorOptions options;
  options.executor = &sched_executor;
  query::QueryExecutor executor(Context(), options);
  const query::Query q = TopKQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, Trajectories()));
  }
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(sched_executor.num_workers()));
}
BENCHMARK(BM_QueryTopKSimilarityScheduled)
    ->Apply([](benchmark::internal::Benchmark* bench) {
      for (const std::size_t workers : WorkerCounts()) {
        bench->Arg(static_cast<std::int64_t>(workers));
      }
    })
    ->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
