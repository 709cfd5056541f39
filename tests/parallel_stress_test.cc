// Stress harness for the parallel substrate — the sched task-graph
// executor — written to run under TSan (ctest label: parallel): every
// scenario here is about *schedule* coverage, not output checking
// alone — task-graph shapes (diamonds, fan-out/fan-in) under steal
// pressure, exceptions thrown inside nodes, executor teardown racing
// unfinished graphs, and ParallelFor hammered from many callers at once.
// The determinism contract ("byte-identical at every worker count") is
// only credible if a race detector stays silent on exactly these
// shapes.

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
#include "base/task_graph.h"
#include "sched/executor.h"
#include "sched/parallel.h"
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
// sched::Executor shapes under steal pressure. The graphs are small;
// the stress comes from running many of them at once on few workers, so
// ready queues drain cross-deque and every dependency edge's release /
// acquire pairing gets exercised by actual thieves.
// ---------------------------------------------------------------------------

TEST(ExecutorStressTest, DiamondDagsUnderStealPressure) {
  // A -> {B, C} -> D, many diamonds per run: D must observe both B's
  // and C's writes, which in turn must observe A's. Any missing edge in
  // the release chain shows up as a torn read here (and under TSan, as
  // a report).
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr std::size_t kDiamonds = 128;
    std::vector<int> a(kDiamonds, 0);
    std::vector<int> b(kDiamonds, 0);
    std::vector<int> c(kDiamonds, 0);
    std::vector<int> d(kDiamonds, 0);
    sitm::TaskGraph graph;
    for (std::size_t i = 0; i < kDiamonds; ++i) {
      const sitm::TaskId ta = graph.AddTask("a", [&a, i] { a[i] = 1; });
      const sitm::TaskId tb =
          graph.AddTask("b", [&a, &b, i] { b[i] = a[i] + 1; });
      const sitm::TaskId tc =
          graph.AddTask("c", [&a, &c, i] { c[i] = a[i] + 2; });
      const sitm::TaskId td =
          graph.AddTask("d", [&b, &c, &d, i] { d[i] = b[i] * 10 + c[i]; });
      ASSERT_TRUE(graph.AddEdge(ta, tb).ok());
      ASSERT_TRUE(graph.AddEdge(ta, tc).ok());
      ASSERT_TRUE(graph.AddEdge(tb, td).ok());
      ASSERT_TRUE(graph.AddEdge(tc, td).ok());
    }
    ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    for (std::size_t i = 0; i < kDiamonds; ++i) {
      ASSERT_EQ(d[i], 23) << "diamond " << i << " at " << workers
                          << " workers";
    }
  }
}

TEST(ExecutorStressTest, FanOutFanInUnderStealPressure) {
  // 1 -> 256 -> 1: the seed task's pushes flood one deque, so nearly
  // every leaf a thief runs was stolen; the join task must still see
  // all 256 increments.
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr std::size_t kLeaves = 256;
    std::vector<std::uint64_t> leaves(kLeaves, 0);
    std::uint64_t total = 0;
    bool seeded = false;
    sitm::TaskGraph graph;
    const sitm::TaskId seed =
        graph.AddTask("seed", [&seeded] { seeded = true; });
    const sitm::TaskId join = graph.AddTask("join", [&leaves, &total] {
      total = std::accumulate(leaves.begin(), leaves.end(),
                              std::uint64_t{0});
    });
    for (std::size_t i = 0; i < kLeaves; ++i) {
      const sitm::TaskId leaf = graph.AddTask(
          "leaf", [&leaves, &seeded, i] { leaves[i] = seeded ? i + 1 : 0; });
      ASSERT_TRUE(graph.AddEdge(seed, leaf).ok());
      ASSERT_TRUE(graph.AddEdge(leaf, join).ok());
    }
    ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    EXPECT_EQ(total, kLeaves * (kLeaves + 1) / 2);
  }
}

TEST(ExecutorStressTest, ExceptionInNodeStillRunsTheRestOfTheGraph) {
  // A throwing node is captured per-task: its successors and every
  // unrelated task still execute (slot state stays deterministic), Run
  // reports the failure, and the executor keeps working afterwards.
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    constexpr std::size_t kTasks = 256;
    std::atomic<std::size_t> ran{0};
    sitm::TaskGraph graph;
    for (std::size_t i = 0; i < kTasks; ++i) {
      graph.AddTask("work", [&ran, i]() {
        if (i == kTasks / 2) throw std::runtime_error("boom");
        ran.fetch_add(1);
      });
    }
    const Status status = executor.Run(std::move(graph));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(ran.load(), kTasks - 1);

    sitm::TaskGraph again;
    std::atomic<std::size_t> after{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      again.AddTask("work", [&after] { after.fetch_add(1); });
    }
    EXPECT_TRUE(executor.Run(std::move(again)).ok());
    EXPECT_EQ(after.load(), kTasks);
  }
}

TEST(ExecutorStressTest, DestructionRacesUnfinishedGraphs) {
  // Destroying the executor while external threads are mid-Run races
  // Shutdown's drain against live runs; the destructor must block until
  // every graph has finished, never strand a queued task.
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
          sitm::TaskGraph graph;
          // The first task proves this run is in flight before the
          // destructor starts; the rest race against the drain.
          graph.AddTask("enter", [&entered] { entered.fetch_add(1); });
          for (int i = 0; i < kTasksEach; ++i) {
            graph.AddTask("tick", [counter] { counter->fetch_add(1); });
          }
          ASSERT_TRUE(raw->Run(std::move(graph)).ok());
        });
      }
      while (entered.load() < kRunners) std::this_thread::yield();
      executor.reset();  // races the runners' unfinished graphs
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
        sched::ParallelFor(
            &executor, kN,
            [&executor, &out, c](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                std::uint64_t inner_sum = 0;
                if (i % 512 == 0) {
                  std::vector<std::uint64_t> inner(64, 0);
                  sched::ParallelFor(
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

// Stress shape: the executor's own locking (worker deques, injection
// queue, per-run state, trace rings) under steal pressure must record
// no order cycles — every MutexLock scope in sched/ is flat by
// design, and this pins that staying true with the detector watching.
TEST(DeadlockDetectorTest, ExecutorStressRecordsNoOrderCycles) {
  for (const std::size_t workers : StressPoolSizes()) {
    sched::Executor executor(workers);
    std::atomic<int> ran{0};
    for (int round = 0; round < 8; ++round) {
      TaskGraph graph;
      std::vector<TaskId> layer;
      for (int i = 0; i < 16; ++i) {
        layer.push_back(graph.AddTask("work", [&ran] { ran.fetch_add(1); }));
      }
      const TaskId join = graph.AddTask("join", nullptr);
      for (const TaskId id : layer) {
        ASSERT_TRUE(graph.AddEdge(id, join).ok());
      }
      ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    }
    EXPECT_EQ(ran.load(), 8 * 16);
  }
}

#endif  // SITM_DEADLOCK_DETECTOR

}  // namespace
}  // namespace sitm
