// Stress harness for the parallel substrate — the sched executor —
// written to run under TSan (ctest label: parallel): every scenario here
// is about *schedule* coverage, not output checking alone — flat task
// lists run by several callers at once, exceptions thrown inside tasks,
// executor teardown racing unfinished runs, and ParallelFor hammered
// from many callers at once. The determinism contract ("byte-identical
// at every worker count") is only credible if a race detector stays
// silent on exactly these shapes.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/result_cache.h"
#include "sched/executor.h"
#include "storage/block_cache.h"
#include "storage/event_store.h"

namespace sitm {
namespace {

std::size_t Hc() { return sched::Executor::DefaultConcurrency(); }

// Worker counts the contract is pinned at: minimal contention (2) and the
// hardware concurrency of the machine running the test.
std::vector<std::size_t> StressPoolSizes() {
  std::vector<std::size_t> sizes{2};
  if (Hc() != 2) sizes.push_back(Hc());
  return sizes;
}

// ---------------------------------------------------------------------------
// sched::Executor shapes under contention. The task lists are small;
// the stress comes from several callers running them at once on few
// workers, so every queue handoff between threads gets exercised.
// ---------------------------------------------------------------------------

TEST(ExecutorStressTest, ConcurrentCallersRunFlatListsIntoPlainSlots) {
  // Several external threads each run flat task lists on one executor,
  // every task writing its own plain (non-atomic) int slot. Each caller
  // reads its slots once its Run returns, so any missing
  // happens-before between a task's write and its caller's read is a
  // torn read here — and, under TSan, a report.
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr int kCallers = 4;
    constexpr int kRounds = 16;
    constexpr std::size_t kTasks = 64;
    std::atomic<int> wrong{0};
    // Raw threads model independent library callers.
    // sitm-lint: allow(naked-thread)
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&executor, &wrong, c] {
        for (int round = 0; round < kRounds; ++round) {
          std::vector<int> slots(kTasks, 0);
          std::vector<Task> tasks;
          tasks.reserve(kTasks);
          for (std::size_t i = 0; i < kTasks; ++i) {
            tasks.push_back({"slot", [&slots, i, c, round] {
                               slots[i] = static_cast<int>(i) + c + round;
                             }});
          }
          if (!executor.Run(std::move(tasks)).ok()) wrong.fetch_add(1);
          for (std::size_t i = 0; i < kTasks; ++i) {
            if (slots[i] != static_cast<int>(i) + c + round) {
              wrong.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();  // sitm-lint: allow(naked-thread)
    EXPECT_EQ(wrong.load(), 0) << workers << " workers";
  }
}

TEST(ExecutorStressTest, ExceptionInNodeStillRunsTheRestOfTheGraph) {
  // A throwing task is captured per-task: every other task of the run
  // still executes (slot state stays deterministic), Run reports the
  // failure, and the executor keeps working afterwards.
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr std::size_t kTasks = 256;
    std::atomic<std::size_t> ran{0};
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back({"work", [&ran, i]() {
                         if (i == kTasks / 2) throw std::runtime_error("boom");
                         ran.fetch_add(1);
                       }});
    }
    const Status status = executor.Run(std::move(tasks));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(ran.load(), kTasks - 1);

    std::vector<Task> again;
    std::atomic<std::size_t> after{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      again.push_back({"work", [&after] { after.fetch_add(1); }});
    }
    EXPECT_TRUE(executor.Run(std::move(again)).ok());
    EXPECT_EQ(after.load(), kTasks);
  }
}

TEST(ExecutorStressTest, DestructionRacesUnfinishedGraphs) {
  // Destroying the executor while external threads are mid-Run races
  // Shutdown's drain against live runs; the destructor must block until
  // every run has finished, never strand a queued task.
  for (const std::size_t workers : StressPoolSizes()) {
    for (int round = 0; round < 8; ++round) {
      auto counter = std::make_shared<std::atomic<int>>(0);
      constexpr int kRunners = 3;
      constexpr int kTasksEach = 64;
      auto executor = std::make_unique<sched::Executor>(workers);
      sched::Executor* raw = executor.get();
      std::atomic<int> entered{0};
      // Raw threads on purpose: they are the external callers whose
      // in-flight runs the destructor must drain.
      // sitm-lint: allow(naked-thread)
      std::vector<std::thread> runners;
      runners.reserve(kRunners);
      for (int r = 0; r < kRunners; ++r) {
        runners.emplace_back([raw, counter, &entered] {
          std::vector<Task> tasks;
          // The first task proves this run is in flight before the
          // destructor starts; the rest race against the drain.
          tasks.push_back({"enter", [&entered] { entered.fetch_add(1); }});
          for (int i = 0; i < kTasksEach; ++i) {
            tasks.push_back({"tick", [counter] { counter->fetch_add(1); }});
          }
          ASSERT_TRUE(raw->Run(std::move(tasks)).ok());
        });
      }
      while (entered.load() < kRunners) std::this_thread::yield();
      executor.reset();  // races the runners' unfinished runs
      for (std::thread& t : runners) t.join();  // sitm-lint: allow(naked-thread)
      EXPECT_EQ(counter->load(), kRunners * kTasksEach);
    }
  }
}

TEST(ExecutorStressTest, ConcurrentNestedParallelForCallersShareOneExecutor) {
  // The library pattern at stress scale: independent callers fan out
  // ParallelFor on one shared executor, and each outer chunk nests an
  // inner ParallelFor (caller participation keeps this deadlock-free
  // when every worker is busy in outer loops).
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr int kCallers = 4;
    constexpr std::size_t kN = 2048;
    std::vector<std::vector<std::uint64_t>> outputs(
        kCallers, std::vector<std::uint64_t>(kN, 0));
    // Raw threads model independent library callers.
    // sitm-lint: allow(naked-thread)
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&executor, &outputs, c] {
        std::vector<std::uint64_t>& out = outputs[c];
        ParallelFor(
            &executor, kN,
            [&executor, &out, c](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                std::uint64_t inner_sum = 0;
                if (i % 512 == 0) {
                  std::vector<std::uint64_t> inner(64, 0);
                  ParallelFor(
                      &executor, inner.size(),
                      [&inner](std::size_t ib, std::size_t ie) {
                        for (std::size_t k = ib; k < ie; ++k) inner[k] = k;
                      },
                      /*grain=*/8);
                  inner_sum = std::accumulate(inner.begin(), inner.end(),
                                              std::uint64_t{0});
                }
                out[i] = i + static_cast<std::uint64_t>(c) + inner_sum;
              }
            },
            /*grain=*/64);
      });
    }
    for (std::thread& t : callers) t.join();  // sitm-lint: allow(naked-thread)
    constexpr std::uint64_t kInnerSum = 64 * 63 / 2;
    for (int c = 0; c < kCallers; ++c) {
      for (std::size_t i = 0; i < kN; ++i) {
        const std::uint64_t expected =
            i + static_cast<std::uint64_t>(c) + (i % 512 == 0 ? kInnerSum : 0);
        ASSERT_EQ(outputs[c][i], expected) << "caller " << c << " slot " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Query-result cache under concurrent readers. The cache's one mutex
// guards an LRU splice on every *lookup*, so read-mostly traffic is
// exactly the contention shape that needs a TSan pass: many threads
// hitting, missing, inserting, and evicting on one instance while the
// shared sched::Executor fans out the cold runs underneath.
// ---------------------------------------------------------------------------

TEST(QueryCacheStressTest, ConcurrentReadersShareOneCache) {
  const auto map = louvre::LouvreMap::Build();
  ASSERT_TRUE(map.ok()) << map.status();
  louvre::SimulatorOptions sim_options;
  sim_options.seed = 4242;
  sim_options.num_visitors = 60;
  sim_options.num_returning = 24;
  sim_options.num_third_visits = 10;
  sim_options.num_detections = (60 + 24 + 10) * 4;
  louvre::VisitSimulator simulator(&*map, sim_options);
  const auto dataset = simulator.Generate();
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  core::PipelineOptions pipeline_options;
  pipeline_options.builder.graph =
      &map->graph().FindLayer(map->zone_layer()).value()->graph();
  core::BatchPipeline pipeline(pipeline_options);
  const auto trajectories = pipeline.Run(dataset->ToRawDetections());
  ASSERT_TRUE(trajectories.ok()) << trajectories.status();

  const std::string path =
      ::testing::TempDir() + "/cache_stress.evst";
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(*trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  const auto hierarchy = map->BuildHierarchy();
  ASSERT_TRUE(hierarchy.ok());
  query::QueryContext context;
  context.hierarchy = &*hierarchy;
  context.graph = &map->graph();

  // A query mix wide enough to churn a capacity-2 cache: every thread
  // keeps evicting what the others just inserted.
  std::vector<query::Query> queries;
  for (const std::int64_t object : {0, 1, 2, 3}) {
    query::Query q;
    q.where = query::ObjectIs(ObjectId(object));
    q.projection = query::Projection::kIds;
    queries.push_back(std::move(q));
  }
  query::Query count;
  count.projection = query::Projection::kCount;
  queries.push_back(std::move(count));

  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    query::QueryResultCache cache(2);  // far smaller than the mix
    query::ExecutorOptions options;
    options.executor = &executor;
    options.cache = &cache;
    const query::QueryExecutor query_executor(context, options);

    // Reference fingerprints, computed before any concurrency.
    std::vector<std::string> expected;
    for (const query::Query& q : queries) {
      const auto reference = query_executor.Run(q, *reader);
      ASSERT_TRUE(reference.ok()) << reference.status();
      expected.push_back(reference->Fingerprint());
    }
    cache.Clear();

    constexpr int kReaders = 4;
    constexpr int kRounds = 32;
    std::atomic<int> divergences{0};
    // Raw threads model independent query clients.
    // sitm-lint: allow(naked-thread)
    std::vector<std::thread> clients;
    clients.reserve(kReaders);
    for (int c = 0; c < kReaders; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < kRounds; ++round) {
          // Different threads walk the mix with different strides, so
          // hit/miss/evict interleavings vary from run to run.
          const std::size_t q =
              (static_cast<std::size_t>(round) * (c + 1) + c) %
              queries.size();
          const auto result = query_executor.Run(queries[q], *reader);
          if (!result.ok() ||
              result->Fingerprint() != expected[q]) {
            divergences.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();  // sitm-lint: allow(naked-thread)
    EXPECT_EQ(divergences.load(), 0);
    // Every lookup was either a hit or a miss (Clear keeps counters, so
    // the reference pass counts too), every miss re-ran cold, and the
    // cache never grew past its capacity. Two threads missing the same
    // key concurrently both report a miss but only the first materialises
    // a fresh entry, so inserts may trail misses — never exceed them.
    const query::QueryResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kReaders) * kRounds +
                  queries.size());
    EXPECT_LE(stats.inserts, stats.misses);
    EXPECT_GE(stats.inserts, queries.size());
    EXPECT_LE(cache.size(), 2u);
    EXPECT_GT(stats.evictions, 0u);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Decoded-block cache under concurrent readers. A BlockCache whose
// budget is below the store's decoded size keeps evictions racing with
// hits and off-lock decodes, while several clients fetch and scan
// overlapping runs of blocks from executor tasks at once.
// ---------------------------------------------------------------------------

/// Everything a scan of `block` hands out: each kept view's columns and
/// its annotations, resolved through `reader`'s dictionary.
std::string ScanDigest(const storage::EventStoreReader& reader,
                       const storage::DecodedBlock& block) {
  std::string out;
  const Status status =
      reader.ScanBlock(block, {}, [&out](const storage::TrajectoryView& v) {
        out += std::to_string(v.id.value()) + ':' +
               std::to_string(v.object.value()) + ':' +
               std::to_string(v.start.seconds_since_epoch()) + '-' +
               std::to_string(v.end.seconds_since_epoch()) + ' ' +
               v.Annotations().ToString();
        for (std::size_t r = 0; r < v.rows; ++r) {
          out += ' ' + std::to_string(v.cells[r]) + '@' +
                 std::to_string(v.starts[r]) + '+' +
                 std::to_string(v.durations[r]) + '/' +
                 std::to_string(v.transitions[r]) +
                 (v.inferred[static_cast<std::ptrdiff_t>(r)] ? "i" : "") +
                 v.StayAnnotations(r).ToString() +
                 v.TransitionAnnotations(r).ToString();
        }
        out += '\n';
      });
  return status.ok() ? out : status.ToString();
}

TEST(QueryCacheStressTest, BlockEvictionsRaceWithLookupsAtEveryWorkerCount) {
  const auto map = louvre::LouvreMap::Build();
  ASSERT_TRUE(map.ok()) << map.status();
  louvre::SimulatorOptions sim_options;
  sim_options.seed = 777;
  sim_options.num_visitors = 80;
  sim_options.num_returning = 20;
  sim_options.num_third_visits = 8;
  sim_options.num_detections = (80 + 20 + 8) * 4;
  louvre::VisitSimulator simulator(&*map, sim_options);
  const auto dataset = simulator.Generate();
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  core::PipelineOptions pipeline_options;
  pipeline_options.builder.graph =
      &map->graph().FindLayer(map->zone_layer()).value()->graph();
  core::BatchPipeline pipeline(pipeline_options);
  const auto trajectories = pipeline.Run(dataset->ToRawDetections());
  ASSERT_TRUE(trajectories.ok()) << trajectories.status();

  const std::string path = ::testing::TempDir() + "/block_cache_stress.evst";
  storage::WriterOptions writer_options;
  writer_options.rows_per_block = 48;  // many small blocks
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, writer_options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(*trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::size_t num_blocks = reader->num_blocks();
  ASSERT_GE(num_blocks, 4u);

  // Cold answers, one thread, no cache.
  std::vector<std::string> expected;
  std::size_t decoded_bytes = 0, largest = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const auto block = reader->DecodeBlock(b);
    ASSERT_TRUE(block.ok()) << block.status();
    decoded_bytes += (*block)->resident_bytes;
    largest = std::max(largest, (*block)->resident_bytes);
    expected.push_back(ScanDigest(*reader, **block));
    ASSERT_FALSE(expected.back().empty());
  }
  // A third of the store, and room for at least the largest block.
  const std::size_t budget = std::max(decoded_bytes / 3, largest);
  ASSERT_LT(budget, decoded_bytes);

  std::vector<std::size_t> worker_counts{1, 2};
  if (Hc() > 2) worker_counts.push_back(Hc());
  for (const std::size_t workers : worker_counts) {
    SCOPED_TRACE(workers);
    sched::Executor executor(workers);
    storage::BlockCache blocks(budget);

    constexpr int kClients = 4;
    constexpr int kRounds = 24;
    std::atomic<int> divergences{0};
    std::atomic<int> over_budget{0};
    // Raw threads model independent query clients; each round fetches
    // and scans a run of half the blocks, starting at a client- and
    // round-dependent block, one executor task per block.
    // sitm-lint: allow(naked-thread)
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < kRounds; ++round) {
          const std::size_t first =
              (static_cast<std::size_t>(round) * (2 * c + 1) + c) %
              num_blocks;
          const std::size_t count = num_blocks / 2 + 1;
          const std::vector<std::string> digests = ParallelMap<std::string>(
              &executor, count, [&](std::size_t k) {
                const std::size_t b = (first + k) % num_blocks;
                const auto block = blocks.Fetch(*reader, b);
                return block.ok() ? ScanDigest(*reader, **block)
                                  : block.status().ToString();
              });
          for (std::size_t k = 0; k < count; ++k) {
            if (digests[k] != expected[(first + k) % num_blocks]) {
              divergences.fetch_add(1);
            }
          }
          if (blocks.resident_bytes() > budget) over_budget.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();  // sitm-lint: allow(naked-thread)
    EXPECT_EQ(divergences.load(), 0);
    EXPECT_EQ(over_budget.load(), 0);
    const storage::BlockCache::Stats stats = blocks.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kClients) * kRounds *
                  (num_blocks / 2 + 1));
    // Concurrent misses of one block may both decode; only one inserts.
    EXPECT_LE(stats.inserts, stats.misses);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(blocks.resident_bytes(), budget);
  }
  std::remove(path.c_str());
}

#if defined(SITM_DEADLOCK_DETECTOR)

// The detector's contract (base/mutex.cc): an acquisition that closes a
// cycle in the global acquisition-order graph aborts with both orders —
// on the FIRST run that exercises both orders, no unlucky interleaving
// required. The classic A/B inversion below never actually deadlocks
// (one thread, sequential scopes), which is exactly the point: the
// detector catches the latent bug shape, not the hang.
TEST(DeadlockDetectorDeathTest, AbInversionAbortsWithBothOrders) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a;
        Mutex b;
        {
          MutexLock hold_a(a);
          MutexLock hold_b(b);  // records a -> b
        }
        {
          MutexLock hold_b(b);
          MutexLock hold_a(a);  // b -> a closes the cycle: abort
        }
      },
      "lock-order inversion");
}

TEST(DeadlockDetectorDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex m;
        MutexLock outer(m);
        m.Lock();  // intentional re-lock of a held mutex
      },
      "recursive acquisition");
}

// Consistent nesting must stay silent: same order twice, a longer chain
// sharing a prefix, and re-use after the locks were dropped. This is
// the false-positive guard for the graph bookkeeping (edges persist
// process-wide, so earlier consistent runs must never poison later
// ones), and HeldCount pins the release bookkeeping across non-LIFO
// unlock orders.
TEST(DeadlockDetectorTest, ConsistentOrdersAndNonLifoReleaseStayQuiet) {
  Mutex a;
  Mutex b;
  Mutex c;
  for (int round = 0; round < 3; ++round) {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
    MutexLock hold_c(c);
  }
  // Non-LIFO release: a then b, while b was acquired second.
  a.Lock();
  b.Lock();
  EXPECT_EQ(deadlock_internal::HeldCount(), 2u);
  a.Unlock();
  EXPECT_EQ(deadlock_internal::HeldCount(), 1u);
  b.Unlock();
  EXPECT_EQ(deadlock_internal::HeldCount(), 0u);
}

// Stress shape: the executor's own locking (the shared queue, per-run
// state, trace rings) under flat runs, nested ParallelFor and detached
// Submit must record no order cycles — every MutexLock scope in sched/
// is flat by design, and this pins that staying true with the detector
// watching.
TEST(DeadlockDetectorTest, ExecutorStressRecordsNoOrderCycles) {
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    std::atomic<int> ran{0};
    for (int round = 0; round < 8; ++round) {
      std::vector<Task> tasks;
      for (int i = 0; i < 16; ++i) {
        tasks.push_back({"work", [&executor, &ran] {
                           ParallelFor(
                               &executor, 4,
                               [&ran](std::size_t begin, std::size_t end) {
                                 ran.fetch_add(static_cast<int>(end - begin));
                               },
                               /*grain=*/1);
                         }});
      }
      executor.Submit({"detached", [&ran] { ran.fetch_add(1); }});
      ASSERT_TRUE(executor.Run(std::move(tasks)).ok());
    }
    executor.Shutdown();  // drains the submitted tasks
    EXPECT_EQ(ran.load(), 8 * (16 * 4 + 1));
  }
}

#endif  // SITM_DEADLOCK_DETECTOR

}  // namespace
}  // namespace sitm
