// Column answers against an exhaustive oracle: kCount, kIds, kTopK and
// kEpisodes over single stores, StoreSets and in-memory batches must
// equal what building every trajectory, extracting its episodes and
// scoring every match in full gives, at every worker count. Store
// blocks answer these projections from the decoded columns for every
// predicate and episode condition, building no trajectory, and rank
// top-k with a running edit-distance cutoff.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/enrichment.h"
#include "core/episode.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/patterns.h"
#include "mining/similarity.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"
#include "storage/event_store.h"
#include "storage/store_set.h"

namespace sitm::query {
namespace {

constexpr std::int64_t kFirstId = 1000;
constexpr std::int64_t kCloneObjectOffset = 1000000;

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map =
      new louvre::LouvreMap(louvre::LouvreMap::Build().value());
  return *map;
}

const indoor::LayerHierarchy& Hierarchy() {
  static const indoor::LayerHierarchy* hierarchy =
      new indoor::LayerHierarchy(Map().BuildHierarchy().value());
  return *hierarchy;
}

QueryContext Context() {
  QueryContext context;
  context.hierarchy = &Hierarchy();
  context.graph = &Map().graph();
  return context;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Simulated visits plus a copy of every fourth one under a fresh object
/// (same cells, so it ties its original on every probe), ordered by
/// (object, start) and numbered from kFirstId the way the batch pipeline
/// numbers a build — so a StoreSet's canonical ids are these ids. Stays
/// carry behavior:stop/move and other:ticketed; every third tuple's
/// transition carries goal:onward, and every seventh trajectory also
/// carries other:ticketed, so each annotation scope tells apart.
const std::vector<core::SemanticTrajectory>& Corpus() {
  static const std::vector<core::SemanticTrajectory>* corpus = [] {
    louvre::SimulatorOptions options;
    options.seed = 77;
    options.num_visitors = 90;
    options.num_returning = 30;
    options.num_third_visits = 12;
    options.num_detections = (90 + 30 + 12) * 4;
    louvre::VisitSimulator simulator(&Map(), options);
    const louvre::VisitDataset dataset = simulator.Generate().value();
    core::PipelineOptions pipeline_options;
    pipeline_options.builder.graph =
        &Map().graph().FindLayer(Map().zone_layer()).value()->graph();
    pipeline_options.rules = {
        core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                    {core::AnnotationKind::kBehavior, "stop"},
                                    {core::AnnotationKind::kBehavior, "move"}),
        core::AnnotateWhereAttribute(
            "requiresTicket", "true",
            {core::AnnotationKind::kOther, "ticketed"}),
    };
    core::BatchPipeline pipeline(pipeline_options);
    std::vector<core::SemanticTrajectory> built =
        pipeline.Run(dataset.ToRawDetections()).value();
    for (std::size_t i = 0; i < built.size(); ++i) {
      std::vector<core::PresenceInterval>& rows =
          built[i].mutable_trace().mutable_intervals();
      for (std::size_t r = 1; r < rows.size(); r += 3) {
        rows[r].transition_annotations.Add(core::AnnotationKind::kGoal,
                                           "onward");
      }
      if (i % 7 == 0) {
        core::AnnotationSet annotations = built[i].annotations();
        annotations.Add(core::AnnotationKind::kOther, "ticketed");
        built[i].set_annotations(std::move(annotations));
      }
    }
    const std::size_t originals = built.size();
    for (std::size_t i = 0; i < originals; i += 4) {
      const core::SemanticTrajectory& t = built[i];
      built.emplace_back(t.id(),
                         ObjectId(t.object().value() + kCloneObjectOffset),
                         t.trace(), t.annotations());
    }
    std::stable_sort(built.begin(), built.end(),
                     [](const core::SemanticTrajectory& a,
                        const core::SemanticTrajectory& b) {
                       if (a.object() != b.object()) {
                         return a.object() < b.object();
                       }
                       return a.start() < b.start();
                     });
    auto* out = new std::vector<core::SemanticTrajectory>;
    for (const core::SemanticTrajectory& t : built) {
      out->emplace_back(TrajectoryId(kFirstId + static_cast<std::int64_t>(
                                                    out->size())),
                        t.object(), t.trace(), t.annotations());
    }
    return out;
  }();
  return *corpus;
}

std::shared_ptr<const storage::EventStoreReader> WriteStore(
    const std::string& path,
    const std::vector<core::SemanticTrajectory>& trajectories,
    std::size_t rows_per_block) {
  storage::WriterOptions options;
  options.rows_per_block = rows_per_block;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->Append(trajectories).ok());
  EXPECT_TRUE(writer->Finish().ok());
  auto reader = storage::EventStoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  return std::make_shared<const storage::EventStoreReader>(
      std::move(reader).value());
}

/// A live-shaped view of the corpus: three segments of every fourth
/// trajectory (offsets 0, 1, 2), each stored in start order under
/// provisional ids with its own block size, and the rest as a tail of
/// two batches in descending id order.
struct SegmentedCorpus {
  storage::StoreSet set;
  std::vector<std::string> paths;

  ~SegmentedCorpus() {
    for (const std::string& path : paths) std::remove(path.c_str());
  }
};

std::unique_ptr<SegmentedCorpus> Segment(
    const std::vector<core::SemanticTrajectory>& corpus) {
  auto out = std::make_unique<SegmentedCorpus>();
  const std::size_t block_rows[] = {5, 31, 240};
  std::vector<storage::StoreSetSegment> segments;
  std::vector<std::vector<storage::TrajectoryKey>> keys;
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<core::SemanticTrajectory> members;
    for (std::size_t i = s; i < corpus.size(); i += 4) {
      members.push_back(corpus[i]);
    }
    std::stable_sort(members.begin(), members.end(),
                     [](const auto& a, const auto& b) {
                       return a.start() < b.start();
                     });
    std::vector<core::SemanticTrajectory> stored;
    for (const core::SemanticTrajectory& t : members) {
      stored.emplace_back(TrajectoryId(7000000 + static_cast<std::int64_t>(
                                                     stored.size())),
                          t.object(), t.trace(), t.annotations());
    }
    out->paths.push_back(
        TempPath("columnar_segment_" + std::to_string(s) + ".evst"));
    segments.push_back(
        {WriteStore(out->paths.back(), stored, block_rows[s])});
    keys.push_back(storage::SortedKeys(stored));
  }
  auto first = std::make_shared<std::vector<core::SemanticTrajectory>>();
  auto second = std::make_shared<std::vector<core::SemanticTrajectory>>();
  for (std::size_t i = corpus.size(); i-- > 0;) {
    if (i % 4 != 3) continue;
    (first->size() < 20 ? first : second)->push_back(corpus[i]);
  }
  out->set = storage::StoreSet::Make(
      TrajectoryId(kFirstId), std::move(segments),
      std::make_shared<const storage::SealedRanks>(
          storage::RankSegments({&keys[0], &keys[1], &keys[2]})),
      {first, second});
  return out;
}

/// Episode labels the generated specs and predicates draw from; the
/// last one no spec ever uses.
constexpr const char* kLabels[] = {"stay", "zone", "tagged", "missing"};

/// Random draws over the corpus: times on trajectory bounds or one second
/// off them, object sets, cell sets, annotation terms.
class Draw {
 public:
  Draw(Rng& rng, const std::vector<core::SemanticTrajectory>& corpus)
      : rng_(rng), corpus_(corpus) {}

  std::size_t Pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.NextBounded(n));
  }

  const core::SemanticTrajectory& Trajectory() {
    return corpus_[Pick(corpus_.size())];
  }

  Timestamp Time() {
    const core::SemanticTrajectory& t = Trajectory();
    const Timestamp edge = Pick(2) == 0 ? t.start() : t.end();
    return edge + Duration::Seconds(static_cast<std::int64_t>(Pick(3)) - 1);
  }

  qsr::TimeInterval Probe() {
    Timestamp a = Time();
    Timestamp b = Time();
    if (b < a) std::swap(a, b);
    return qsr::TimeInterval::Make(a, b).value();
  }

  AllenMask Mask() {
    switch (Pick(4)) {
      case 0:
        return AllenMask::Intersecting();
      case 1:
        return AllenMask::Within();
      case 2:
        return AllenMask::Of(
            {qsr::AllenRelation::kBefore, qsr::AllenRelation::kMeets});
      default:
        return AllenMask::Of({qsr::AllenRelation::kOverlaps,
                              qsr::AllenRelation::kOverlappedBy,
                              qsr::AllenRelation::kContains});
    }
  }

  Predicate Window() {
    const qsr::TimeInterval probe = Probe();
    switch (Pick(4)) {
      case 0:
        return TimeWindow(probe.start(), std::nullopt);
      case 1:
        return TimeWindow(std::nullopt, probe.end());
      default:
        return TimeWindow(probe.start(), probe.end());
    }
  }

  Predicate Objects() {
    std::vector<ObjectId> chosen;
    const std::size_t n = 1 + Pick(6);
    for (std::size_t k = 0; k < n; ++k) chosen.push_back(Trajectory().object());
    if (Pick(3) == 0) chosen.push_back(ObjectId(kCloneObjectOffset * 9));
    return ObjectIn(chosen);
  }

  /// A few cells one random trajectory visits.
  std::unordered_set<CellId> Cells() {
    const core::Trace& trace = Trajectory().trace();
    std::unordered_set<CellId> cells;
    const std::size_t n = 1 + Pick(4);
    for (std::size_t k = 0; k < n; ++k) {
      cells.insert(trace.at(Pick(trace.size())).cell);
    }
    return cells;
  }

  /// A term that occurs on stays, on transitions, on trajectories, or
  /// nowhere.
  std::pair<core::AnnotationKind, std::string> Term() {
    switch (Pick(5)) {
      case 0:
        return {core::AnnotationKind::kBehavior, "stop"};
      case 1:
        return {core::AnnotationKind::kBehavior, "move"};
      case 2:
        return {core::AnnotationKind::kOther, "ticketed"};
      case 3:
        return {core::AnnotationKind::kGoal, "onward"};
      default:
        return {core::AnnotationKind::kGoal, "absent from every set"};
    }
  }

  const char* Label() { return kLabels[Pick(4)]; }

 private:
  Rng& rng_;
  const std::vector<core::SemanticTrajectory>& corpus_;
};

core::TupleCondition RandomCondition(Draw& draw, int depth = 0) {
  switch (draw.Pick(depth == 0 ? 5 : 4)) {
    case 0:
      return core::StayAtLeast(
          Duration::Minutes(static_cast<std::int64_t>(draw.Pick(20))));
    case 1:
      return core::InCells(draw.Cells());
    case 2: {
      auto [kind, value] = draw.Term();
      return core::HasAnnotation(kind, std::move(value));
    }
    case 3:
      return core::TupleCondition();  // holds on every tuple
    default: {
      core::TupleCondition a = RandomCondition(draw, depth + 1);
      return core::And(std::move(a), RandomCondition(draw, depth + 1));
    }
  }
}

/// Zero to two episode specs over every condition leaf and And.
std::vector<EpisodeSpec> RandomEpisodes(Draw& draw) {
  std::vector<EpisodeSpec> specs(draw.Pick(3));
  for (EpisodeSpec& spec : specs) {
    spec.label = kLabels[draw.Pick(3)];
    spec.condition = RandomCondition(draw);
    if (draw.Pick(2) == 0) {
      spec.annotations.Add(core::AnnotationKind::kBehavior, "lingering");
    }
  }
  return specs;
}

/// Random predicates over every leaf kind the executor decides on the
/// columns — object sets, time windows (two of them, disjoint ones that
/// one trajectory spans included), Allen constraints, zones, annotations
/// in every scope and episodes — composed with And, Or and Not.
Predicate RandomWhere(Draw& draw, int depth = 0) {
  // Each draw in its own statement: argument evaluation order is
  // unspecified, and the sequence must not depend on the compiler.
  switch (draw.Pick(depth < 2 ? 14 : 11)) {
    case 0:
      return All();
    case 1:
      return draw.Objects();
    case 2:
      return draw.Window();
    case 3: {
      Predicate objects = draw.Objects();
      return And(std::move(objects), draw.Window());
    }
    case 4: {
      if (draw.Pick(2) == 0) {
        Predicate first = draw.Window();
        return And(std::move(first), draw.Window());
      }
      // Disjoint windows that one trajectory spans, meeting both.
      const core::SemanticTrajectory& t = draw.Trajectory();
      return And(TimeWindow(t.start(), t.start()),
                 TimeWindow(t.end(), t.end()));
    }
    case 5: {
      const AllenMask mask = draw.Mask();
      return AllenAgainst(mask, draw.Probe());
    }
    case 6: {
      const auto& wings =
          Map().graph().FindLayer(Map().wing_layer()).value()->graph().cells();
      return InZone(wings[draw.Pick(wings.size())].id());
    }
    case 7:
      return InCells(draw.Cells());
    case 8: {
      auto [kind, value] = draw.Term();
      return HasAnnotation(kind, std::move(value),
                           static_cast<AnnotationScope>(draw.Pick(3)));
    }
    case 9:
      return HasEpisode(draw.Pick(4) == 0 ? "" : draw.Label());
    case 10: {
      const std::string label = draw.Pick(4) == 0 ? "" : draw.Label();
      const AllenMask mask = draw.Mask();
      return EpisodeAllen(label, mask, draw.Probe());
    }
    case 11: {
      Predicate a = RandomWhere(draw, depth + 1);
      return And(std::move(a), RandomWhere(draw, depth + 1));
    }
    case 12: {
      Predicate a = RandomWhere(draw, depth + 1);
      return Or(std::move(a), RandomWhere(draw, depth + 1));
    }
    default:
      return Not(RandomWhere(draw, depth + 1));
  }
}

/// The answer of building and scoring every trajectory in full:
/// core::ExtractMaximalEpisodes for each spec, MatchesTrajectory, then
/// EditSimilarity on each match ranked by (similarity desc, id asc), or
/// every episode of a match the episode filter admits.
QueryResult Oracle(const Query& query,
                   const std::vector<core::SemanticTrajectory>& corpus) {
  const Predicate where = query.where.Bind(Context()).value();
  QueryResult result;
  result.projection = query.projection;
  const std::vector<CellId> probe =
      query.top_k.probe != nullptr ? mining::CellSequenceOf(*query.top_k.probe)
                                   : std::vector<CellId>{};
  const mining::CellCost cost =
      query.top_k.cost ? query.top_k.cost : mining::UnitCellCost();
  for (const core::SemanticTrajectory& t : corpus) {
    std::vector<core::Episode> episodes;
    for (const EpisodeSpec& spec : query.episodes) {
      for (core::Episode& episode : core::ExtractMaximalEpisodes(
               t, spec.condition, spec.label, spec.annotations)) {
        episodes.push_back(std::move(episode));
      }
    }
    if (!where.MatchesTrajectory(t, &episodes)) continue;
    result.count += 1;
    if (query.projection == Projection::kIds) result.ids.push_back(t.id());
    if (query.projection == Projection::kTopK) {
      result.top_k.push_back(
          {t.id(),
           mining::EditSimilarity(probe, mining::CellSequenceOf(t), cost)});
    }
    if (query.projection != Projection::kEpisodes) continue;
    const EpisodeFilter& filter = query.episode_filter;
    for (const core::Episode& episode : episodes) {
      const qsr::TimeInterval interval = episode.IntervalIn(t).value();
      if (!filter.label.empty() && episode.label != filter.label) continue;
      if (filter.allen.has_value() && !filter.allen->Admits(interval)) {
        continue;
      }
      result.episodes.push_back({t.id(), t.object(), episode, interval});
    }
  }
  std::sort(result.top_k.begin(), result.top_k.end(),
            [](const ScoredTrajectory& a, const ScoredTrajectory& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.trajectory < b.trajectory;
            });
  if (result.top_k.size() > query.top_k.k) result.top_k.resize(query.top_k.k);
  return result;
}

/// One store-backed or store-set source under test.
struct Source {
  const char* name;
  const storage::EventStoreReader* reader = nullptr;
  const storage::StoreSet* set = nullptr;
};

Result<QueryResult> RunOn(const QueryExecutor& executor, const Query& query,
                          const Source& source) {
  if (source.reader != nullptr) return executor.Run(query, *source.reader);
  if (source.set != nullptr) return executor.Run(query, *source.set);
  return executor.Run(query, Corpus());
}

std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2, sched::Executor::DefaultConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

void ExpectSameStats(const ExecutionStats& a, const ExecutionStats& b) {
  EXPECT_EQ(a.blocks_total, b.blocks_total);
  EXPECT_EQ(a.blocks_scanned, b.blocks_scanned);
  EXPECT_EQ(a.rows_total, b.rows_total);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.trajectories_considered, b.trajectories_considered);
  EXPECT_EQ(a.trajectories_matched, b.trajectories_matched);
  EXPECT_EQ(a.trajectories_built, b.trajectories_built);
}

/// Random queries over `sources`: every projection of {kCount, kIds,
/// kTopK, kEpisodes} — top-k at k in {0, 1, 5, n} under both costs,
/// episodes under four filters — must equal the oracle at every worker
/// count, with identical stats. Stats must also equal a kTrajectories
/// run's (the materializing path), except that these projections build
/// nothing.
void CheckAgainstOracle(const std::vector<Source>& sources,
                        std::uint64_t seed, int queries) {
  const std::vector<core::SemanticTrajectory>& corpus = Corpus();
  const mining::CellCost hierarchy_cost =
      mining::HierarchyCellCost(&Hierarchy(), 6);
  std::vector<std::unique_ptr<sched::Executor>> pools;
  std::vector<QueryExecutor> executors;
  for (const std::size_t workers : WorkerCounts()) {
    pools.push_back(std::make_unique<sched::Executor>(workers));
    ExecutorOptions options;
    options.executor = pools.back().get();
    options.chunk = 16;
    executors.emplace_back(Context(), options);
  }
  Rng rng(seed);
  Draw draw(rng, corpus);
  for (int q = 0; q < queries; ++q) {
    Query query;
    query.where = RandomWhere(draw);
    query.episodes = RandomEpisodes(draw);
    query.top_k.probe = &draw.Trajectory();
    const std::size_t ks[] = {0, 1, 5, corpus.size()};
    const qsr::TimeInterval episode_probe = draw.Probe();
    for (const Projection projection :
         {Projection::kCount, Projection::kIds, Projection::kTopK,
          Projection::kEpisodes}) {
      const std::size_t variants = projection == Projection::kTopK       ? 8
                                   : projection == Projection::kEpisodes ? 4
                                                                         : 1;
      for (std::size_t variant = 0; variant < variants; ++variant) {
        query.projection = projection;
        query.top_k.k = ks[variant % 4];
        query.top_k.cost = variant < 4 ? mining::CellCost() : hierarchy_cost;
        query.episode_filter.label = variant % 2 == 0 ? "" : kLabels[q % 3];
        query.episode_filter.allen.reset();
        if (variant >= 2) {
          query.episode_filter.allen =
              AllenConstraint{AllenMask::Intersecting(), episode_probe};
        }
        SCOPED_TRACE("query " + std::to_string(q) + " " +
                     query.where.ToString() + " with " +
                     std::to_string(query.episodes.size()) +
                     " episode specs, projection " +
                     std::to_string(static_cast<int>(projection)) +
                     " variant " + std::to_string(variant));
        const QueryResult expected = Oracle(query, corpus);
        if (projection == Projection::kTopK && query.top_k.k == 5 &&
            expected.count > 5) {
          // The clones make ties common; the oracle's order is the rule.
          ASSERT_EQ(expected.top_k.size(), 5u);
        }
        for (const Source& source : sources) {
          SCOPED_TRACE(source.name);
          std::vector<ExecutionStats> stats;
          for (const QueryExecutor& executor : executors) {
            const auto got = RunOn(executor, query, source);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(got->Fingerprint(), expected.Fingerprint());
            EXPECT_EQ(got->stats.trajectories_matched, expected.count);
            stats.push_back(got->stats);
          }
          for (const ExecutionStats& s : stats) ExpectSameStats(stats[0], s);
          Query materialized = query;
          materialized.projection = Projection::kTrajectories;
          const auto built = RunOn(executors[0], materialized, source);
          ASSERT_TRUE(built.ok()) << built.status();
          ExecutionStats want = built->stats;
          want.trajectories_built = 0;  // chunks build none anyway
          ExpectSameStats(stats[0], want);
        }
      }
    }
  }
}

TEST(QueryColumnarPropertyTest, TiesAtARoundedCutoffStillGoToTheLowerId) {
  // Every candidate is one substitution away from the three-cell probe:
  // similarity 1 - 1/3, whose plain cutoff (1 - s) * 3 rounds to just
  // under the distance 1. Scanned in descending id order, each later
  // candidate ties the k-th and must displace it on its lower id.
  const auto make = [](std::int64_t id, std::vector<std::int64_t> cells) {
    std::vector<core::PresenceInterval> intervals;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto start = static_cast<std::int64_t>(100 * i);
      intervals.emplace_back(
          BoundaryId::Invalid(), CellId(cells[i]),
          *qsr::TimeInterval::Make(Timestamp(start), Timestamp(start + 60)));
    }
    return core::SemanticTrajectory(TrajectoryId(id), ObjectId(id),
                                    core::Trace(std::move(intervals)), {});
  };
  const core::SemanticTrajectory probe = make(0, {1, 2, 3});
  std::vector<core::SemanticTrajectory> descending;
  for (std::int64_t id = 40; id >= 1; --id) {
    descending.push_back(make(id, {1, 9, 3}));
  }
  const std::string path = TempPath("columnar_rounded_cutoff.evst");
  const auto reader = WriteStore(path, descending, 100000);
  const QueryExecutor executor(Context());
  for (const std::size_t k : {1u, 3u}) {
    Query query;
    query.projection = Projection::kTopK;
    query.top_k.k = k;
    query.top_k.probe = &probe;
    const QueryResult expected = Oracle(query, descending);
    ASSERT_EQ(expected.top_k.front().trajectory, TrajectoryId(1));
    const auto from_store = executor.Run(query, *reader);
    ASSERT_TRUE(from_store.ok()) << from_store.status();
    EXPECT_EQ(from_store->Fingerprint(), expected.Fingerprint());
    const auto in_memory = executor.Run(query, descending);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status();
    EXPECT_EQ(in_memory->Fingerprint(), expected.Fingerprint());
  }
  std::remove(path.c_str());
}

TEST(QueryColumnarPropertyTest, SingleStoresMatchTheOracle) {
  const std::vector<core::SemanticTrajectory>& corpus = Corpus();
  ASSERT_GT(corpus.size(), 150u);
  std::vector<std::shared_ptr<const storage::EventStoreReader>> readers;
  std::vector<std::string> paths;
  std::vector<Source> sources;
  const std::size_t block_rows[] = {3, 64, 100000};
  for (const std::size_t rows : block_rows) {
    paths.push_back(TempPath("columnar_store_" + std::to_string(rows) +
                             ".evst"));
    readers.push_back(WriteStore(paths.back(), corpus, rows));
    sources.push_back({"store", readers.back().get(), nullptr});
  }
  ASSERT_EQ(readers.back()->num_blocks(), 1u);
  ASSERT_GT(readers.front()->num_blocks(), 100u);
  CheckAgainstOracle(sources, 0xc0104, 48);
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(QueryColumnarPropertyTest, StoreSetsMatchTheOracle) {
  const auto segmented = Segment(Corpus());
  CheckAgainstOracle({{"store set", nullptr, &segmented->set}}, 0x5e7, 48);
}

TEST(QueryColumnarPropertyTest, InMemoryBatchesMatchTheOracle) {
  // Chunk units keep building nothing and rank top-k with the same
  // running cutoff.
  CheckAgainstOracle({{"in memory", nullptr, nullptr}}, 0xba7c4, 24);
}

}  // namespace
}  // namespace sitm::query
