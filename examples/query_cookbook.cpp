// Query cookbook: the paper-shaped questions the semantic trajectory
// model exists to answer, asked end to end through src/query/ — over an
// in-memory batch and over an on-disk EventStore with predicate
// pushdown (plans and scan accounting printed for each).
//
//   1. Who was in the Richelieu wing during one afternoon?
//   2. Visits lying entirely inside the probe window (Allen "within").
//   3. Stops annotated behavior:stop in the souvenir shops (tuples).
//   4. Long-stay episodes overlapping a guided tour (Allen + episodes).
//   5. The five visits most similar to a probe visit (top-k).
//
// Build & run:  cmake --build build && ./build/examples/query_cookbook
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/enrichment.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/event_store.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::query;  // NOLINT

void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "FATAL: " << status << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

void PrintHeader(int number, const char* question) {
  std::printf("\n--- Query %d: %s\n", number, question);
}

void PrintStats(const QueryResult& result) {
  std::printf("    [%s]\n", result.stats.ToString().c_str());
}

}  // namespace

int main() {
  // ---- Workload: a simulated Louvre season, built into semantic
  // trajectories and persisted as a columnar event store.
  const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  const indoor::LayerHierarchy hierarchy = Unwrap(map.BuildHierarchy());
  louvre::SimulatorOptions sim_options;  // paper-calibrated defaults
  louvre::VisitSimulator simulator(&map, sim_options);
  louvre::VisitDataset dataset = Unwrap(simulator.Generate());

  core::PipelineOptions pipeline_options;
  pipeline_options.builder.graph =
      &Unwrap(map.graph().FindLayer(map.zone_layer()))->graph();
  pipeline_options.rules = {core::AnnotateStopsAndMoves(
      Duration::Minutes(5), {core::AnnotationKind::kBehavior, "stop"},
      {core::AnnotationKind::kBehavior, "move"})};
  core::BatchPipeline pipeline(pipeline_options);
  const std::vector<core::SemanticTrajectory> visits =
      Unwrap(pipeline.Run(dataset.ToRawDetections()));

  const std::string store_path = "query_cookbook.evst";
  storage::WriterOptions store_options;
  store_options.rows_per_block = 512;
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      store_path, storage::StoreKind::kTrajectories, store_options));
  Check(writer.Append(visits));
  Check(writer.Finish());
  const auto store = Unwrap(storage::EventStoreReader::Open(store_path));
  std::printf("cookbook workload: %zu visits, %llu tuples, %zu store "
              "blocks\n",
              visits.size(), static_cast<unsigned long long>(store.rows()),
              store.num_blocks());

  QueryContext context;
  context.hierarchy = &hierarchy;
  context.graph = &map.graph();
  QueryExecutor executor(context);

  // Civil probe times inside the §4.1 collection window
  // (2017-01-19 .. 2017-05-29).
  const auto At = [](int month, int day, int hour) {
    return Unwrap(Timestamp::FromCivil(2017, month, day, hour, 0, 0));
  };

  // ---- 1. Zone + time: who was in the Richelieu wing one afternoon?
  const auto& wings =
      Unwrap(map.graph().FindLayer(map.wing_layer()))->graph().cells();
  const CellId richelieu = wings.front().id();
  PrintHeader(1, ("objects in '" +
                  Unwrap(map.CellName(richelieu)) +
                  "' on Feb 1st, 14:00-15:00")
                     .c_str());
  Query wing_query;
  wing_query.where =
      And(InZone(richelieu), TimeWindow(At(2, 1, 14), At(2, 1, 15)));
  wing_query.projection = Projection::kIds;
  const auto bound = Unwrap(wing_query.where.Bind(context));
  std::printf("    plan: %s\n", Plan(bound).Explain().c_str());
  const auto wing_hits = Unwrap(executor.Run(wing_query, store));
  std::printf("    %llu matching visits (first ids:",
              static_cast<unsigned long long>(wing_hits.count));
  for (std::size_t i = 0; i < wing_hits.ids.size() && i < 5; ++i) {
    std::printf(" %lld", static_cast<long long>(wing_hits.ids[i].value()));
  }
  std::printf(")\n");
  PrintStats(wing_hits);

  // ---- 2. Allen: visits entirely inside a probe window.
  PrintHeader(2, "visits lying entirely inside March 15th (Allen within)");
  const auto probe_window =
      Unwrap(qsr::TimeInterval::Make(At(3, 15, 0), At(3, 16, 0)));
  Query within_query;
  within_query.where = AllenAgainst(AllenMask::Within(), probe_window);
  within_query.projection = Projection::kCount;
  const auto within = Unwrap(executor.Run(within_query, store));
  std::printf("    %llu visits (the Allen mask pushed the probe window "
              "into the block pruner)\n",
              static_cast<unsigned long long>(within.count));
  PrintStats(within);

  // ---- 3. Tuples: stops in the souvenir shops.
  PrintHeader(3, "stops (behavior:stop) in the souvenir-shops zone");
  Query stops_query;
  stops_query.where = InCell(CellId(louvre::kZoneSouvenirShops));
  stops_query.tuple_where =
      And(InCell(CellId(louvre::kZoneSouvenirShops)),
          HasAnnotation(core::AnnotationKind::kBehavior, "stop",
                        AnnotationScope::kTuple));
  stops_query.projection = Projection::kTuples;
  const auto stops = Unwrap(executor.Run(stops_query, visits));
  std::printf("    %zu stop tuples across %llu visits; first: %s\n",
              stops.tuples.size(),
              static_cast<unsigned long long>(stops.count),
              stops.tuples.empty()
                  ? "-"
                  : stops.tuples.front().tuple.ToString().c_str());
  PrintStats(stops);
  // Asked for the whole visits, the store decides the zone on its
  // decoded columns and builds only the visits that match.
  Query shop_visits_query = stops_query;
  shop_visits_query.projection = Projection::kTrajectories;
  const auto shop_visits = Unwrap(executor.Run(shop_visits_query, visits));
  const auto shop_stored = Unwrap(executor.Run(shop_visits_query, store));
  if (shop_stored.Fingerprint() != shop_visits.Fingerprint()) {
    std::cerr << "FATAL: store visits differ from the in-memory ones\n";
    return 1;
  }
  if (shop_stored.stats.trajectories_built !=
      shop_stored.stats.trajectories_matched) {
    std::cerr << "FATAL: the store built "
              << shop_stored.stats.trajectories_built << " trajectories for "
              << shop_stored.stats.trajectories_matched << " matches\n";
    return 1;
  }
  std::printf("    the same %llu visits whole, from the store:\n",
              static_cast<unsigned long long>(shop_stored.count));
  PrintStats(shop_stored);

  // ---- 4. Episodes: long stays overlapping the guided tour.
  PrintHeader(4, "long-stay episodes overlapping the Mar 15 guided tour "
                 "(10:00-16:00)");
  const auto tour =
      Unwrap(qsr::TimeInterval::Make(At(3, 15, 10), At(3, 15, 16)));
  Query tour_query;
  core::AnnotationSet lingering;
  lingering.Add(core::AnnotationKind::kBehavior, "lingering");
  tour_query.episodes.push_back(
      {"long-stay", core::StayAtLeast(Duration::Minutes(10)), lingering});
  tour_query.where =
      EpisodeAllen("long-stay", AllenMask::Intersecting(), tour);
  tour_query.projection = Projection::kEpisodes;
  tour_query.episode_filter.label = "long-stay";
  tour_query.episode_filter.allen =
      AllenConstraint{AllenMask::Intersecting(), tour};
  const auto tour_hits = Unwrap(executor.Run(tour_query, visits));
  std::printf("    %zu overlapping episodes from %llu visits\n",
              tour_hits.episodes.size(),
              static_cast<unsigned long long>(tour_hits.count));
  PrintStats(tour_hits);
  // The store extracts the same episodes from its decoded columns: the
  // stay condition reads the duration column, so no trajectory is built.
  const auto tour_stored = Unwrap(executor.Run(tour_query, store));
  if (tour_stored.Fingerprint() != tour_hits.Fingerprint()) {
    std::cerr << "FATAL: store episodes differ from the in-memory ones\n";
    return 1;
  }
  if (tour_stored.stats.trajectories_built != 0) {
    std::cerr << "FATAL: the store built "
              << tour_stored.stats.trajectories_built
              << " trajectories for an episode query\n";
    return 1;
  }
  std::printf("    same episodes from the store:\n");
  PrintStats(tour_stored);

  // ---- 5. Top-k similarity to a probe visit.
  PrintHeader(5, "five visits most similar to visit #1 (edit similarity "
                 "over zone sequences)");
  Query similar_query;
  similar_query.projection = Projection::kTopK;
  similar_query.top_k.k = 5;
  similar_query.top_k.probe = &visits.front();
  const auto similar = Unwrap(executor.Run(similar_query, visits));
  for (const auto& hit : similar.top_k) {
    std::printf("    visit #%lld  similarity %.3f\n",
                static_cast<long long>(hit.trajectory.value()),
                hit.similarity);
  }
  PrintStats(similar);
  // The store answers the same ranking from its decoded columns, so no
  // trajectory is built.
  const auto similar_stored = Unwrap(executor.Run(similar_query, store));
  if (similar_stored.Fingerprint() != similar.Fingerprint()) {
    std::cerr << "FATAL: store top-k differs from the in-memory one\n";
    return 1;
  }
  std::printf("    same ranking from the store:\n");
  PrintStats(similar_stored);

  std::remove(store_path.c_str());
  std::printf("\nquery cookbook done.\n");
  return 0;
}
