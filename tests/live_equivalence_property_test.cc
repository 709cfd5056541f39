// Batch/stream equivalence — the live subsystem's core contract: any
// admissible arrival order of a detection set (shuffled, duplicated,
// late-but-within-lateness), pushed through the full live stack
// (IncrementalBuilder -> rolling SegmentStore segments with compaction
// -> Snapshot -> store-set query execution), answers queries
// byte-identically (result fingerprints) to the batch pipeline with
// in-memory execution, at worker counts {1, 2, hw}; once as configured
// by default and twice with the graph filter on, which reads what the
// live builder keeps of objects it has retired — the second time with
// objects returning, after they were retired, to a cell their last one
// cannot reach, so the filter must drop those returns on both paths.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/builder.h"
#include "core/enrichment.h"
#include "core/pipeline.h"
#include "live/incremental_builder.h"
#include "live/segment_store.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"

namespace sitm::live {
namespace {

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map = [] {
    auto result = louvre::LouvreMap::Build();
    EXPECT_TRUE(result.ok()) << result.status();
    return new louvre::LouvreMap(std::move(result).value());
  }();
  return *map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

std::vector<core::RawDetection> LouvreDetections(int visitors,
                                                 std::uint64_t seed) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 5;
  options.seed = seed;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return dataset->ToRawDetections();
}

core::PipelineOptions BatchOptions(bool drop_graph_inconsistent) {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.builder.drop_graph_inconsistent = drop_graph_inconsistent;
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
  return options;
}

IncrementalOptions StreamOptions(Duration lateness,
                                 bool drop_graph_inconsistent) {
  const core::PipelineOptions batch = BatchOptions(drop_graph_inconsistent);
  IncrementalOptions options;
  static_cast<core::StageOptions&>(options) = batch;
  options.allowed_lateness = lateness;
  return options;
}

/// The smallest allowed_lateness under which `arrival` has zero late
/// drops: the worst event-time regression in the sequence (admission
/// compares each start against max-start-seen-so-far minus lateness).
Duration RequiredLateness(const std::vector<core::RawDetection>& arrival) {
  Duration worst = Duration::Seconds(0);
  bool any = false;
  Timestamp prefix_max;
  for (const core::RawDetection& d : arrival) {
    if (any && d.start < prefix_max) {
      worst = std::max(worst, prefix_max - d.start);
    }
    if (!any || d.start > prefix_max) {
      prefix_max = d.start;
      any = true;
    }
  }
  return worst + Duration::Seconds(1);
}

/// The query set the equivalence is pinned on: one per projection shape
/// that the live /query endpoint serves.
std::vector<query::Query> EquivalenceQueries(
    const std::vector<core::SemanticTrajectory>& reference) {
  std::vector<query::Query> queries;
  {
    query::Query q;
    q.where = query::All();
    q.projection = query::Projection::kCount;
    queries.push_back(std::move(q));
  }
  {
    query::Query q;
    q.where = query::All();
    q.projection = query::Projection::kTrajectories;
    queries.push_back(std::move(q));
  }
  if (!reference.empty()) {
    const core::SemanticTrajectory& mid = reference[reference.size() / 2];
    query::Query q;
    q.where = query::ObjectIs(mid.object());
    q.projection = query::Projection::kTrajectories;
    queries.push_back(std::move(q));

    query::Query ids;
    ids.where = query::TimeWindow(mid.start(), std::nullopt);
    ids.projection = query::Projection::kIds;
    queries.push_back(std::move(ids));

    query::Query tuples;
    tuples.where = query::InCell(mid.trace().intervals().front().cell);
    tuples.projection = query::Projection::kTuples;
    queries.push_back(std::move(tuples));
  }
  return queries;
}

/// A cell in no graph: no zone of the map reaches it.
constexpr std::int64_t kUnreachableCell = 999999;

/// Appends, for every third object, one detection in kUnreachableCell
/// that starts more than the session gap after every detection has
/// ended — by then the live builder has retired most of these objects.
/// Returns how many it appended.
std::size_t AddReturnsToAnUnreachableCell(
    std::vector<core::RawDetection>& detections) {
  std::vector<ObjectId> objects;
  Timestamp last_end = detections.front().end;
  for (const core::RawDetection& d : detections) {
    objects.push_back(d.object);
    last_end = std::max(last_end, d.end);
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  const Timestamp first_return = last_end +
                                 BatchOptions(true).builder.session_gap +
                                 Duration::Hours(1);
  std::size_t returns = 0;
  for (std::size_t i = 0; i < objects.size(); i += 3, ++returns) {
    const Timestamp start =
        first_return + Duration::Minutes(static_cast<std::int64_t>(i));
    detections.emplace_back(objects[i], CellId(kUnreachableCell), start,
                            start + Duration::Minutes(1));
  }
  return returns;
}

struct Scenario {
  const char* name;
  /// Positions a detection may move from its sorted slot; SIZE_MAX =
  /// full shuffle.
  std::size_t shuffle_window;
  std::size_t duplicates;
  std::size_t batch_size;
};

std::vector<core::RawDetection> ArrivalOrder(
    std::vector<core::RawDetection> detections, const Scenario& scenario,
    Rng* rng) {
  for (std::size_t i = 0; i < scenario.duplicates && !detections.empty();
       ++i) {
    detections.push_back(detections[static_cast<std::size_t>(
        rng->NextInt(0, static_cast<std::int64_t>(detections.size()) - 1))]);
  }
  std::sort(detections.begin(), detections.end(),
            [](const core::RawDetection& a, const core::RawDetection& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end < b.end;
              return a.object.value() < b.object.value();
            });
  // Fisher-Yates, bounded by the scenario's window so scenario A keeps
  // its lateness (and therefore its mid-stream watermark finalization)
  // small while scenario B is a full shuffle.
  for (std::size_t i = detections.size(); i > 1; --i) {
    const std::size_t lo =
        scenario.shuffle_window >= i - 1 ? 0 : i - 1 - scenario.shuffle_window;
    const std::size_t j = lo + static_cast<std::size_t>(rng->NextInt(
                                   0, static_cast<std::int64_t>(i - 1 - lo)));
    std::swap(detections[i - 1], detections[j]);
  }
  return detections;
}

void ExpectStreamedStoreAnswersMatchBatch(
    std::uint64_t seed, bool drop_graph_inconsistent,
    bool returns_to_an_unreachable_cell = false) {
  std::vector<core::RawDetection> detections =
      LouvreDetections(/*visitors=*/18, seed);
  ASSERT_FALSE(detections.empty());
  const std::size_t returns = returns_to_an_unreachable_cell
                                  ? AddReturnsToAnUnreachableCell(detections)
                                  : 0;

  std::vector<Scenario> scenarios = {
      {"bounded-shuffle", 40, 12, 37},
      {"full-shuffle", static_cast<std::size_t>(-1), 25, 61},
  };
  if (returns > 0) {
    // Shuffled arrivals need a lateness near the whole stream's span, so
    // the watermark retires almost nothing before the returns arrive;
    // in event-time order it retires every object that finished early.
    scenarios.insert(scenarios.begin(), {"in-order", 0, 0, 37});
  }

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    Rng rng(seed ^ 0xC0FFEEULL);
    const std::vector<core::RawDetection> arrival =
        ArrivalOrder(detections, scenario, &rng);
    const Duration lateness = RequiredLateness(arrival);

    // Batch reference over the SAME multiset (duplicates included; the
    // batch cleaning pass drops them as contained, and the stream must
    // agree), executed sequentially in memory.
    core::BatchPipeline batch(BatchOptions(drop_graph_inconsistent));
    auto reference = batch.Run(arrival);
    ASSERT_TRUE(reference.ok()) << reference.status();

    const std::vector<query::Query> queries = EquivalenceQueries(*reference);
    std::vector<std::string> expected;
    {
      query::QueryExecutor sequential{query::QueryContext{}};
      for (const query::Query& q : queries) {
        auto result = sequential.Run(q, *reference);
        ASSERT_TRUE(result.ok()) << result.status();
        expected.push_back(result->Fingerprint());
      }
    }

    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2},
          sched::Executor::DefaultConcurrency()}) {
      sched::Executor executor(workers);

      SegmentStoreOptions store_options;
      store_options.directory = ::testing::TempDir() + "live_eq_" +
                                std::to_string(seed) + "_" + scenario.name +
                                "_" + std::to_string(workers);
      // Tiny segments + fanin 2: many seals, several compaction
      // generations, snapshots spanning levels — the hard case.
      store_options.seal_trajectories = 7;
      store_options.compaction_fanin = 2;
      store_options.writer.rows_per_block = 16;
      store_options.runner = &executor;
      SegmentStore store(store_options);

      // Finalized trajectories reach the store a few at a time (the
      // steady-stream shape): Drain's large final batch is chunked too,
      // so sealing — and therefore compaction — actually exercises.
      const auto append_chunked =
          [&store](std::vector<core::SemanticTrajectory> batch) {
            constexpr std::size_t kChunk = 3;
            for (std::size_t i = 0; i < batch.size(); i += kChunk) {
              std::vector<core::SemanticTrajectory> chunk;
              for (std::size_t j = i;
                   j < std::min(batch.size(), i + kChunk); ++j) {
                chunk.push_back(std::move(batch[j]));
              }
              ASSERT_TRUE(store.Append(std::move(chunk)).ok());
            }
          };

      IncrementalBuilder builder(
          StreamOptions(lateness, drop_graph_inconsistent));
      std::vector<core::SemanticTrajectory> finalized;
      for (std::size_t i = 0; i < arrival.size();
           i += scenario.batch_size) {
        const std::size_t end =
            std::min(arrival.size(), i + scenario.batch_size);
        finalized.clear();
        ASSERT_TRUE(builder
                        .Ingest(std::vector<core::RawDetection>(
                                    arrival.begin() +
                                        static_cast<std::ptrdiff_t>(i),
                                    arrival.begin() +
                                        static_cast<std::ptrdiff_t>(end)),
                                &finalized)
                        .ok());
        append_chunked(std::move(finalized));
      }
      finalized.clear();
      ASSERT_TRUE(builder.Drain(&finalized).ok());
      append_chunked(std::move(finalized));
      // The lateness bound was computed to admit everything.
      EXPECT_EQ(builder.stats().late_dropped, 0u);
      EXPECT_EQ(builder.stats().finalized, reference->size());
      // The cleaning counters are the shared build step's, on both paths.
      const core::BuildReport& live_build = builder.stats().build;
      const core::BuildReport& batch_build = batch.report().build;
      EXPECT_EQ(live_build.zero_duration_dropped,
                batch_build.zero_duration_dropped);
      EXPECT_EQ(live_build.contained_dropped, batch_build.contained_dropped);
      EXPECT_EQ(live_build.overlaps_clipped, batch_build.overlaps_clipped);
      EXPECT_EQ(live_build.graph_inconsistent_dropped,
                batch_build.graph_inconsistent_dropped);
      EXPECT_EQ(live_build.merged_same_cell, batch_build.merged_same_cell);
      if (returns > 0) {
        // Every return is dropped (a duplicated one once per copy); in
        // order, the watermark has retired objects before the returns
        // arrive, so their drops read the retained last detections.
        EXPECT_GE(live_build.graph_inconsistent_dropped, returns);
        if (scenario.shuffle_window == 0) {
          EXPECT_GT(builder.stats().retired_objects, returns / 2);
        }
      }

      // Query over the live view: sealed segments + unsealed tail.
      auto snapshot = store.Snapshot(
          StreamOptions(lateness, drop_graph_inconsistent)
              .builder.first_trajectory_id);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();

      query::ExecutorOptions exec_options;
      exec_options.executor = &executor;
      exec_options.chunk = 16;
      query::QueryExecutor live_executor{query::QueryContext{},
                                         exec_options};
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto result = live_executor.Run(queries[q], *snapshot);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->Fingerprint(), expected[q])
            << "query " << q << " at worker count " << workers;
      }

      ASSERT_TRUE(store.Close().ok());
      const SegmentStoreStats stats = store.stats();
      // The scenario must actually exercise compaction to mean anything.
      EXPECT_GT(stats.compactions, 0u);
      EXPECT_GE(stats.written_bytes, stats.logical_bytes);
    }
  }
}

class LiveEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveEquivalenceSweep, StreamedStoreAnswersMatchBatch) {
  ExpectStreamedStoreAnswersMatchBatch(GetParam(),
                                       /*drop_graph_inconsistent=*/false);
}

TEST_P(LiveEquivalenceSweep, GraphFilteredStreamMatchesBatch) {
  ExpectStreamedStoreAnswersMatchBatch(GetParam(),
                                       /*drop_graph_inconsistent=*/true);
}

TEST_P(LiveEquivalenceSweep, RetiredObjectsReturningToAnUnreachableCell) {
  ExpectStreamedStoreAnswersMatchBatch(GetParam(),
                                       /*drop_graph_inconsistent=*/true,
                                       /*returns_to_an_unreachable_cell=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEquivalenceSweep,
                         ::testing::Values(3u, 17u, 2024u));

}  // namespace
}  // namespace sitm::live
