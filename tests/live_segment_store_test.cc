// SegmentStore unit behavior: sealing, canonical-id snapshots over
// segments + the unsealed tail, inline and background compaction,
// CompactAll, and Close semantics. Everything is observed through the
// public surface — snapshots queried exactly as the live /query path
// queries them.
#include "live/segment_store.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/task_runner.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"
#include "storage/store_set.h"

namespace sitm::live {
namespace {

core::SemanticTrajectory MakeTrajectory(
    std::int64_t id, std::int64_t object,
    const std::vector<std::array<std::int64_t, 3>>& cell_start_end) {
  std::vector<core::PresenceInterval> intervals;
  for (const auto& [cell, start, end] : cell_start_end) {
    intervals.emplace_back(
        BoundaryId::Invalid(), CellId(cell),
        qsr::TimeInterval::Make(Timestamp(start), Timestamp(end)).value());
  }
  return core::SemanticTrajectory(
      TrajectoryId(id), ObjectId(object), core::Trace(std::move(intervals)),
      core::AnnotationSet{{core::AnnotationKind::kActivity, "visit"}});
}

std::string UniqueDir(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "live_segstore_" + info->name() + "_" + tag;
}

/// The store's determinism oracle: a snapshot must answer exactly like
/// an in-memory run over `expected` (already in canonical order with
/// canonical ids).
void ExpectSnapshotMatches(
    const SegmentStore& store, TrajectoryId first_id,
    const std::vector<core::SemanticTrajectory>& expected) {
  auto snapshot = store.Snapshot(first_id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->Validate().ok());
  query::Query q;
  q.where = query::All();
  q.projection = query::Projection::kTrajectories;
  const query::QueryExecutor executor{query::QueryContext{}};
  auto from_store = executor.Run(q, *snapshot);
  ASSERT_TRUE(from_store.ok()) << from_store.status();
  auto reference = executor.Run(q, expected);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(from_store->Fingerprint(), reference->Fingerprint());
}

/// Three-object working set whose append order deliberately disagrees
/// with the canonical (object, start) order.
std::vector<core::SemanticTrajectory> WorkingSet() {
  return {
      MakeTrajectory(901, 5, {{10, 5000, 5100}, {11, 5200, 5400}}),
      MakeTrajectory(902, 2, {{20, 100, 300}}),
      MakeTrajectory(903, 5, {{12, 50, 90}}),
      MakeTrajectory(904, 1, {{10, 9000, 9500}}),
      MakeTrajectory(905, 2, {{21, 4000, 4200}, {22, 4300, 4350}}),
  };
}

/// WorkingSet in canonical order with canonical ids from `first`.
std::vector<core::SemanticTrajectory> CanonicalSet(std::int64_t first) {
  return {
      MakeTrajectory(first + 0, 1, {{10, 9000, 9500}}),
      MakeTrajectory(first + 1, 2, {{20, 100, 300}}),
      MakeTrajectory(first + 2, 2, {{21, 4000, 4200}, {22, 4300, 4350}}),
      MakeTrajectory(first + 3, 5, {{12, 50, 90}}),
      MakeTrajectory(first + 4, 5, {{10, 5000, 5100}, {11, 5200, 5400}}),
  };
}

TEST(SegmentStoreTest, PendingOnlySnapshotCarriesCanonicalIds) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 0;  // never seal by size
  SegmentStore store(options);
  ASSERT_TRUE(store.Append(WorkingSet()).ok());
  EXPECT_EQ(store.stats().segments, 0u);
  EXPECT_EQ(store.stats().pending_trajectories, 5u);
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  // The id base is the caller's: a different first_id shifts every id.
  ExpectSnapshotMatches(store, TrajectoryId(50), CanonicalSet(50));
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, FlushSealsAndAnswersIdentically) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 0;
  SegmentStore store(options);
  ASSERT_TRUE(store.Append(WorkingSet()).ok());
  ASSERT_TRUE(store.Flush().ok());
  const SegmentStoreStats stats = store.stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.pending_trajectories, 0u);
  EXPECT_EQ(stats.sealed_trajectories, 5u);
  EXPECT_GT(stats.segment_bytes, 0u);
  EXPECT_EQ(stats.logical_bytes, stats.written_bytes);  // no compaction yet
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, CanonicalIdsSpanSegmentsAndTail) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 2;  // tiny segments
  options.compaction_fanin = 0;   // isolate sealing from compaction
  SegmentStore store(options);
  // Appended one at a time: seals fire at 2, leaving one in the tail.
  for (core::SemanticTrajectory& t : WorkingSet()) {
    std::vector<core::SemanticTrajectory> one;
    one.push_back(std::move(t));
    ASSERT_TRUE(store.Append(std::move(one)).ok());
  }
  const SegmentStoreStats stats = store.stats();
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.pending_trajectories, 1u);
  // Ranking is global: ids interleave across both files and the tail.
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, InlineCompactionCascadesLevels) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 1;
  options.compaction_fanin = 2;
  // No runner: compaction runs inline on the sealing thread.
  SegmentStore store(options);
  for (core::SemanticTrajectory& t : WorkingSet()) {
    std::vector<core::SemanticTrajectory> one;
    one.push_back(std::move(t));
    ASSERT_TRUE(store.Append(std::move(one)).ok());
  }
  const SegmentStoreStats stats = store.stats();
  // 5 L0 seals with fanin 2 force at least L0->L1 and L1->L2 merges.
  EXPECT_GE(stats.compactions, 2u);
  EXPECT_GE(stats.max_level, 2);
  EXPECT_GT(stats.written_bytes, stats.logical_bytes);
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, CompactAllLeavesOneSegment) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 2;
  options.compaction_fanin = 0;
  SegmentStore store(options);
  for (core::SemanticTrajectory& t : WorkingSet()) {
    std::vector<core::SemanticTrajectory> one;
    one.push_back(std::move(t));
    ASSERT_TRUE(store.Append(std::move(one)).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.CompactAll().ok());
  const SegmentStoreStats stats = store.stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.pending_trajectories, 0u);
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, SnapshotSurvivesLaterCompaction) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 2;
  options.compaction_fanin = 0;
  SegmentStore store(options);
  for (core::SemanticTrajectory& t : WorkingSet()) {
    std::vector<core::SemanticTrajectory> one;
    one.push_back(std::move(t));
    ASSERT_TRUE(store.Append(std::move(one)).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_GE(store.stats().segments, 2u);
  auto snapshot = store.Snapshot(TrajectoryId(1));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // CompactAll unlinks the files the snapshot still maps; shared
  // readers must keep it answering identically.
  ASSERT_TRUE(store.CompactAll().ok());
  query::Query q;
  q.where = query::All();
  q.projection = query::Projection::kTrajectories;
  const query::QueryExecutor executor{query::QueryContext{}};
  auto stale = executor.Run(q, *snapshot);
  ASSERT_TRUE(stale.ok()) << stale.status();
  auto reference = executor.Run(q, CanonicalSet(1));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(stale->Fingerprint(), reference->Fingerprint());
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, BackgroundCompactionOnExecutor) {
  sched::Executor executor(2);
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  options.seal_trajectories = 1;
  options.compaction_fanin = 2;
  options.runner = &executor;
  SegmentStore store(options);
  for (int round = 0; round < 4; ++round) {
    std::vector<core::SemanticTrajectory> batch = WorkingSet();
    // Distinct objects per round so the canonical set is well-defined.
    for (core::SemanticTrajectory& t : batch) {
      std::vector<core::SemanticTrajectory> one;
      one.push_back(core::SemanticTrajectory(
          t.id(), ObjectId(t.object().value() + round * 100),
          std::move(t.mutable_trace()), t.annotations()));
      ASSERT_TRUE(store.Append(std::move(one)).ok());
    }
    // Snapshots taken while compactions are in flight must stay valid.
    auto snapshot = store.Snapshot(TrajectoryId(1));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(snapshot->Validate().ok());
    EXPECT_EQ(snapshot->TotalTrajectories(),
              static_cast<std::uint64_t>((round + 1) * 5));
  }
  // Close waits out in-flight merges and surfaces any background error.
  ASSERT_TRUE(store.Close().ok());
  EXPECT_GT(store.stats().compactions, 0u);
  // Idempotent.
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, EmptyTraceIsRejectedAndNothingIsBuffered) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  std::filesystem::remove_all(options.directory);
  options.seal_trajectories = 2;
  options.compaction_fanin = 0;
  SegmentStore store(options);
  std::vector<core::SemanticTrajectory> working = WorkingSet();
  std::vector<core::SemanticTrajectory> first(working.begin(),
                                              working.begin() + 1);
  ASSERT_TRUE(store.Append(std::move(first)).ok());
  const SegmentStoreStats before = store.stats();

  // A valid trajectory next to an empty one: the whole call is refused.
  std::vector<core::SemanticTrajectory> bad;
  bad.push_back(working[1]);
  bad.emplace_back(TrajectoryId(999), ObjectId(7), core::Trace(),
                   core::AnnotationSet{});
  const Status status = store.Append(std::move(bad));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  const SegmentStoreStats after = store.stats();
  EXPECT_EQ(after.segments, before.segments);
  EXPECT_EQ(after.pending_trajectories, before.pending_trajectories);
  EXPECT_EQ(after.sealed_trajectories, before.sealed_trajectories);
  EXPECT_EQ(after.written_bytes, before.written_bytes);

  // Later appends seal normally, and no orphan file was left behind.
  for (std::size_t i = 1; i < working.size(); ++i) {
    ASSERT_TRUE(store.Append({working[i]}).ok());
  }
  EXPECT_EQ(store.stats().segments, 2u);
  EXPECT_EQ(store.stats().pending_trajectories, 1u);
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.directory)) {
    static_cast<void>(entry);
    ++files;
  }
  EXPECT_EQ(files, store.stats().segments);
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  ASSERT_TRUE(store.Close().ok());
}

std::size_t FilesIn(const std::string& directory) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    static_cast<void>(entry);
    ++files;
  }
  return files;
}

auto StatsFields(const SegmentStoreStats& s) {
  return std::make_tuple(s.segments, s.pending_trajectories,
                         s.sealed_trajectories, s.compactions,
                         s.segment_bytes, s.logical_bytes, s.written_bytes,
                         s.max_level, s.segments_per_level);
}

// A seal whose write fails moves nothing: its batches stay in the tail,
// visible exactly once, and the next Flush seals them into one segment.
TEST(SegmentStoreTest, FailedSealLeavesTheTailInPlace) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  std::filesystem::remove_all(options.directory);
  options.seal_trajectories = 0;
  SegmentStore store(options);
  std::vector<core::SemanticTrajectory> working = WorkingSet();
  ASSERT_TRUE(store.Append({working.begin(), working.begin() + 2}).ok());
  ASSERT_TRUE(store.Append({working.begin() + 2, working.end()}).ok());
  const SegmentStoreStats before = store.stats();
  ASSERT_EQ(before.pending_trajectories, 5u);

  // A regular file where the segment directory belongs: no segment can
  // be created under it.
  { std::ofstream(options.directory) << "not a directory"; }
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(store.Flush().ok());
    EXPECT_EQ(StatsFields(store.stats()), StatsFields(before));
    ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  }

  std::filesystem::remove(options.directory);
  ASSERT_TRUE(store.Flush().ok());
  const SegmentStoreStats after = store.stats();
  EXPECT_EQ(after.segments, 1u);
  EXPECT_EQ(after.pending_trajectories, 0u);
  EXPECT_EQ(after.sealed_trajectories, 5u);
  EXPECT_EQ(after.logical_bytes, after.written_bytes);
  EXPECT_EQ(FilesIn(options.directory), 1u);
  ExpectSnapshotMatches(store, TrajectoryId(1), CanonicalSet(1));
  // Nothing is left to seal twice.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(StatsFields(store.stats()), StatsFields(after));
  ASSERT_TRUE(store.Close().ok());
}

// Three writers append disjoint objects, one to three trajectories at a
// time, with tiny seals, while two readers snapshot: the store orders
// the seals itself. Every snapshot is one contiguous id range, no
// reader sees its count fall, and the end state is the canonical union.
TEST(SegmentStoreTest, ConcurrentWritersAndReaders) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 120;
  constexpr std::int64_t kFirst = 7;
  std::vector<std::vector<core::SemanticTrajectory>> streams(kWriters);
  std::vector<core::SemanticTrajectory> all;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      const std::int64_t start = 1000 + i * 10 + w;
      streams[w].push_back(
          MakeTrajectory(w * kPerWriter + i, w * 100 + 1 + i % 30,
                         {{1 + i % 7, start, start + 5 + i % 11}}));
      all.push_back(streams[w].back());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const core::SemanticTrajectory& a,
               const core::SemanticTrajectory& b) {
              return std::make_pair(a.object().value(), a.start()) <
                     std::make_pair(b.object().value(), b.start());
            });
  std::vector<core::SemanticTrajectory> expected;
  for (core::SemanticTrajectory& t : all) {
    expected.emplace_back(
        TrajectoryId(kFirst + static_cast<std::int64_t>(expected.size())),
        t.object(), std::move(t.mutable_trace()), t.annotations());
  }

  sched::Executor pool(2);
  // Writers and readers run as tasks: the readers hold at most kReaders
  // of the kWriters + kReaders + 1 threads, so every writer gets one.
  sched::Executor threads(kWriters + kReaders);
  for (const std::size_t fanin : {2, 3, 4}) {
    SCOPED_TRACE("fanin " + std::to_string(fanin));
    SegmentStoreOptions options;
    options.directory = UniqueDir("w") + std::to_string(fanin);
    std::filesystem::remove_all(options.directory);
    options.seal_trajectories = 3;
    options.compaction_fanin = fanin;
    options.runner = &pool;
    SegmentStore store(options);

    std::atomic<int> writing{kWriters};
    std::atomic<int> append_failures{0};
    std::atomic<int> split_snapshots{0};
    std::atomic<int> shrinking_snapshots{0};
    const auto write = [&](const std::vector<core::SemanticTrajectory>& mine) {
      for (std::size_t i = 0; i < mine.size();) {
        const std::size_t end = std::min(mine.size(), i + 1 + i % 3);
        if (!store.Append({mine.begin() + static_cast<long>(i),
                           mine.begin() + static_cast<long>(end)})
                 .ok()) {
          append_failures.fetch_add(1);
        }
        i = end;
      }
      writing.fetch_sub(1);
    };
    const auto read = [&] {
      query::Query q;
      q.where = query::All();
      q.projection = query::Projection::kIds;
      const query::QueryExecutor executor{query::QueryContext{}};
      std::uint64_t seen = 0;
      do {
        auto snapshot = store.Snapshot(TrajectoryId(kFirst));
        auto ids = snapshot.ok() ? executor.Run(q, *snapshot)
                                 : Result<query::QueryResult>(snapshot.status());
        bool contiguous =
            ids.ok() && ids->ids.size() == snapshot->TotalTrajectories();
        for (std::size_t i = 0; contiguous && i < ids->ids.size(); ++i) {
          contiguous = ids->ids[i] ==
                       TrajectoryId(kFirst + static_cast<std::int64_t>(i));
        }
        if (!contiguous) {
          split_snapshots.fetch_add(1);
          continue;
        }
        if (snapshot->TotalTrajectories() < seen) {
          shrinking_snapshots.fetch_add(1);
        }
        seen = snapshot->TotalTrajectories();
      } while (writing.load() > 0);
    };
    std::vector<Task> tasks;
    for (const auto& mine : streams) {
      tasks.push_back({"test/writer", [&write, &mine] { write(mine); }});
    }
    for (int r = 0; r < kReaders; ++r) tasks.push_back({"test/reader", read});
    ASSERT_TRUE(threads.Run(std::move(tasks)).ok());
    EXPECT_EQ(append_failures.load(), 0);
    EXPECT_EQ(split_snapshots.load(), 0);
    EXPECT_EQ(shrinking_snapshots.load(), 0);

    ASSERT_TRUE(store.Flush().ok());
    ASSERT_TRUE(store.Close().ok());
    const SegmentStoreStats stats = store.stats();
    EXPECT_EQ(stats.pending_trajectories, 0u);
    EXPECT_EQ(stats.sealed_trajectories, expected.size());
    EXPECT_EQ(FilesIn(options.directory), stats.segments);
    ExpectSnapshotMatches(store, TrajectoryId(kFirst), expected);
  }
}

/// The eager ranking rule, kept as the reference: decode every segment
/// of `snapshot`, append its tail, sort everything by (object, start,
/// source, ordinal), and number from `first_id`.
std::vector<core::SemanticTrajectory> EagerCanonical(
    const storage::StoreSet& snapshot, TrajectoryId first_id) {
  using Key = std::tuple<std::int64_t, std::int64_t, std::size_t,
                         std::size_t>;
  std::vector<std::pair<Key, core::SemanticTrajectory>> all;
  const auto add = [&](std::vector<core::SemanticTrajectory> source,
                       std::size_t index) {
    for (std::size_t o = 0; o < source.size(); ++o) {
      const core::SemanticTrajectory& t = source[o];
      all.emplace_back(Key{t.object().value(), t.start().seconds_since_epoch(),
                           index, o},
                       t);
    }
  };
  for (std::size_t s = 0; s < snapshot.segments.size(); ++s) {
    auto decoded = snapshot.segments[s].reader->ReadTrajectories({});
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    add(std::move(decoded).value(), s);
  }
  std::vector<core::SemanticTrajectory> tail;
  for (const storage::TrajectoryBatch& batch : snapshot.tail) {
    tail.insert(tail.end(), batch->begin(), batch->end());
  }
  add(std::move(tail), snapshot.segments.size());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<core::SemanticTrajectory> out;
  for (auto& [key, t] : all) {
    out.emplace_back(TrajectoryId(first_id.value() + out.size()), t.object(),
                     std::move(t.mutable_trace()), t.annotations());
  }
  return out;
}

/// Every projection of a snapshot answers exactly like an in-memory run
/// over the eager reference.
void ExpectMatchesEagerRule(const SegmentStore& store, TrajectoryId first_id,
                            const core::SemanticTrajectory& probe) {
  auto snapshot = store.Snapshot(first_id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const std::vector<core::SemanticTrajectory> expected =
      EagerCanonical(*snapshot, first_id);
  ASSERT_EQ(expected.size(), snapshot->TotalTrajectories());
  const query::QueryExecutor executor{query::QueryContext{}};
  const query::Projection projections[] = {
      query::Projection::kIds, query::Projection::kTrajectories,
      query::Projection::kTuples, query::Projection::kEpisodes,
      query::Projection::kTopK};
  const query::Predicate wheres[] = {
      query::All(), query::ObjectIn({ObjectId(2), ObjectId(3)})};
  for (const query::Predicate& where : wheres) {
    for (const query::Projection projection : projections) {
      query::Query q;
      q.where = where;
      q.projection = projection;
      q.tuple_where = query::InCell(CellId(1));
      q.episodes.push_back(
          {"stay", core::StayAtLeast(Duration::Seconds(5)), {}});
      // Few cells and short traces: many trajectories tie on similarity,
      // so the id tie-break decides the top k.
      q.top_k.k = 4;
      q.top_k.probe = &probe;
      auto got = executor.Run(q, *snapshot);
      ASSERT_TRUE(got.ok()) << got.status();
      auto want = executor.Run(q, expected);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_EQ(got->Fingerprint(), want->Fingerprint())
          << "projection " << static_cast<int>(projection) << ", "
          << where.ToString();
    }
  }
}

TEST(SegmentStoreTest, MidStreamSnapshotsMatchTheEagerRankingRule) {
  Rng rng(17);
  std::vector<core::SemanticTrajectory> stream;
  for (int i = 0; i < 24; ++i) {
    std::vector<std::array<std::int64_t, 3>> stays;
    std::int64_t at = rng.NextInt(0, 12) * 10;
    for (std::int64_t n = rng.NextInt(1, 3); n > 0; --n) {
      const std::int64_t end = at + rng.NextInt(1, 9);
      stays.push_back({rng.NextInt(1, 3), at, end});
      at = end + 1;
    }
    // Objects and starts drawn from small ranges, so some (object,
    // start) keys repeat across sources.
    stream.push_back(MakeTrajectory(100 + i, rng.NextInt(1, 5), stays));
  }
  const core::SemanticTrajectory probe =
      MakeTrajectory(0, 9, {{1, 0, 5}, {2, 6, 9}});
  sched::Executor pool(2);
  for (const std::size_t seal : {0, 1, 2, 7}) {
    for (const std::size_t fanin : {0, 2, 4}) {
      for (const bool background : {false, true}) {
        // Without seals nothing compacts, and without compaction the
        // runner is never used.
        if ((seal == 0 && fanin != 0) || (fanin == 0 && background)) continue;
        for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                        seal + 1}) {
          SCOPED_TRACE("seal " + std::to_string(seal) + " fanin " +
                       std::to_string(fanin) + " background " +
                       std::to_string(background) + " batch " +
                       std::to_string(batch));
          SegmentStoreOptions options;
          options.directory = UniqueDir("p");
          std::filesystem::remove_all(options.directory);
          options.seal_trajectories = seal;
          options.compaction_fanin = fanin;
          options.runner = background ? &pool : nullptr;
          SegmentStore store(options);
          for (std::size_t begin = 0; begin < stream.size(); begin += batch) {
            const std::size_t end = std::min(stream.size(), begin + batch);
            ASSERT_TRUE(store
                            .Append({stream.begin() + static_cast<long>(begin),
                                     stream.begin() + static_cast<long>(end)})
                            .ok());
            ExpectMatchesEagerRule(store, TrajectoryId(1), probe);
            if (::testing::Test::HasFatalFailure()) return;
          }
          ASSERT_TRUE(store.Close().ok());
        }
      }
    }
  }
}

// Equal (object, start) keys: within a segment by ordinal, and every
// segment before the tail.
TEST(SegmentStoreTest, EqualKeysRankSegmentsBeforeTheTail) {
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  std::filesystem::remove_all(options.directory);
  options.seal_trajectories = 2;
  options.compaction_fanin = 0;
  SegmentStore store(options);
  // Same object and start everywhere; the cells tell them apart.
  ASSERT_TRUE(store
                  .Append({MakeTrajectory(1, 4, {{31, 100, 110}}),
                           MakeTrajectory(2, 4, {{32, 100, 120}})})
                  .ok());
  ASSERT_TRUE(store.Append({MakeTrajectory(3, 4, {{33, 100, 130}})}).ok());
  ASSERT_EQ(store.stats().segments, 1u);
  ASSERT_EQ(store.stats().pending_trajectories, 1u);
  ExpectSnapshotMatches(store, TrajectoryId(10),
                        {MakeTrajectory(10, 4, {{31, 100, 110}}),
                         MakeTrajectory(11, 4, {{32, 100, 120}}),
                         MakeTrajectory(12, 4, {{33, 100, 130}})});
  ASSERT_TRUE(store.Close().ok());
}

// Readers snapshot and query while a writer seals and compacts on a
// 2-worker executor: every answer is one contiguous id range. A large
// first segment makes each rank rebuild slow enough to overlap seals,
// so a snapshot that installed ranks for a stale manifest would hand
// later snapshots ranks that do not fit their segments.
TEST(SegmentStoreTest, ConcurrentSnapshotsDuringBackgroundCompaction) {
  sched::Executor pool(2);
  SegmentStoreOptions options;
  options.directory = UniqueDir("a");
  std::filesystem::remove_all(options.directory);
  options.seal_trajectories = 3;
  options.compaction_fanin = 4;
  options.runner = &pool;
  SegmentStore store(options);
  Rng rng(5);
  std::int64_t next = 0;
  const auto stream = [&](int n) {
    std::vector<core::SemanticTrajectory> out;
    for (int i = 0; i < n; ++i, ++next) {
      const std::int64_t start = 1000 + next * 10 + rng.NextInt(0, 9);
      out.push_back(MakeTrajectory(
          next, rng.NextInt(1, 4000),
          {{rng.NextInt(1, 50), start, start + rng.NextInt(1, 300)}}));
    }
    return out;
  };
  ASSERT_TRUE(store.Append(stream(20000)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> queries{0};
  const auto read = [&] {
    query::Query q;
    q.where = query::All();
    q.projection = query::Projection::kIds;
    const query::QueryExecutor executor{query::QueryContext{}};
    while (!done.load()) {
      auto snapshot = store.Snapshot(TrajectoryId(5));
      auto ids = snapshot.ok() ? executor.Run(q, *snapshot)
                               : Result<query::QueryResult>(snapshot.status());
      bool contiguous = ids.ok() && ids->ids.size() ==
                                        snapshot->TotalTrajectories();
      for (std::size_t i = 0; contiguous && i < ids->ids.size(); ++i) {
        contiguous = ids->ids[i] == TrajectoryId(5 + static_cast<long>(i));
      }
      if (!contiguous) failures.fetch_add(1);
      queries.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;  // sitm-lint: allow(naked-thread)
  for (int r = 0; r < 2; ++r) readers.emplace_back(read);
  for (int i = 0; i < 1200; ++i) {
    const Status appended = store.Append(stream(1));
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    if (!appended.ok()) break;
    // Spaced out so readers also see each manifest between seals.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  while (queries.load() < 20) std::this_thread::yield();
  done.store(true);
  // sitm-lint: allow(naked-thread)
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  const Status closed = store.Close();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  EXPECT_GT(store.stats().compactions, 0u);
}

}  // namespace
}  // namespace sitm::live
