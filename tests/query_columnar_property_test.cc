// Column answers against an exhaustive oracle: kCount, kIds and kTopK
// over single stores, StoreSets and in-memory batches must equal what
// scoring every match in full gives, at every worker count. Exact plans
// answer these projections from the decoded columns and rank top-k with
// a running edit-distance cutoff; everything else builds trajectories.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/patterns.h"
#include "mining/similarity.h"
#include "query/executor.h"
#include "query/planner.h"
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
/// numbers a build — so a StoreSet's canonical ids are these ids.
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
    core::BatchPipeline pipeline(pipeline_options);
    std::vector<core::SemanticTrajectory> built =
        pipeline.Run(dataset.ToRawDetections()).value();
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

/// Random predicates from the shapes the planner must tell apart: exact
/// ones (true, ObjectIn, TimeWindow, And(ObjectIn, TimeWindow)) and
/// inexact ones (two windows, disjoint ones included, Or, InZone).
/// Window bounds sit on trajectory bounds, or one second off them.
Predicate RandomWhere(Rng& rng,
                      const std::vector<core::SemanticTrajectory>& corpus) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBounded(n));
  };
  const auto time = [&] {
    const core::SemanticTrajectory& t = corpus[pick(corpus.size())];
    const Timestamp edge = pick(2) == 0 ? t.start() : t.end();
    return edge + Duration::Seconds(static_cast<std::int64_t>(pick(3)) - 1);
  };
  const auto window = [&] {
    Timestamp a = time();
    Timestamp b = time();
    if (b < a) std::swap(a, b);
    switch (pick(4)) {
      case 0:
        return TimeWindow(a, std::nullopt);
      case 1:
        return TimeWindow(std::nullopt, b);
      default:
        return TimeWindow(a, b);
    }
  };
  const auto objects = [&] {
    std::vector<ObjectId> chosen;
    const std::size_t n = 1 + pick(6);
    for (std::size_t k = 0; k < n; ++k) {
      chosen.push_back(corpus[pick(corpus.size())].object());
    }
    if (pick(3) == 0) chosen.push_back(ObjectId(kCloneObjectOffset * 9));
    return ObjectIn(chosen);
  };
  const auto& wings =
      Map().graph().FindLayer(Map().wing_layer()).value()->graph().cells();
  switch (pick(7)) {
    case 0:
      return All();
    case 1:
      return objects();
    case 2:
      return window();
    case 3:
      return And(objects(), window());
    case 4: {
      if (pick(2) == 0) return And(window(), window());
      // Disjoint windows that one trajectory spans, meeting both.
      const core::SemanticTrajectory& t = corpus[pick(corpus.size())];
      return And(TimeWindow(t.start(), t.start()),
                 TimeWindow(t.end(), t.end()));
    }
    case 5:
      return Or(objects(), window());
    default:
      return InZone(wings[pick(wings.size())].id());
  }
}

/// The answer of scoring every match in full: MatchesTrajectory, then
/// EditSimilarity on each match, ranked by (similarity desc, id asc).
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
    if (!where.MatchesTrajectory(t)) continue;
    result.count += 1;
    if (query.projection == Projection::kIds) result.ids.push_back(t.id());
    if (query.projection == Projection::kTopK) {
      result.top_k.push_back(
          {t.id(),
           mining::EditSimilarity(probe, mining::CellSequenceOf(t), cost)});
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
/// kTopK} at k in {0, 1, 5, n} under both costs must equal the oracle
/// at every worker count, with identical stats. Store stats must also
/// equal a kTrajectories run's (the materializing path), except that
/// exact plans build nothing.
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
  for (int q = 0; q < queries; ++q) {
    Query query;
    query.where = RandomWhere(rng, corpus);
    const bool exact = Plan(query.where.Bind(Context()).value()).exact;
    query.top_k.probe = &corpus[rng.NextBounded(corpus.size())];
    const std::size_t ks[] = {0, 1, 5, corpus.size()};
    for (const Projection projection :
         {Projection::kCount, Projection::kIds, Projection::kTopK}) {
      for (std::size_t variant = 0;
           variant < (projection == Projection::kTopK ? 8u : 1u); ++variant) {
        query.projection = projection;
        query.top_k.k = ks[variant % 4];
        query.top_k.cost = variant < 4 ? mining::CellCost() : hierarchy_cost;
        SCOPED_TRACE("query " + std::to_string(q) + " " +
                     query.where.ToString() + " projection " +
                     std::to_string(static_cast<int>(projection)) + " k " +
                     std::to_string(query.top_k.k) + " cost " +
                     std::to_string(variant / 4));
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
          if (exact) want.trajectories_built = 0;  // chunks build none anyway
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
