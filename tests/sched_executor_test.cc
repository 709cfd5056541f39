// The work-stealing executor's contracts: dependency ordering, the
// determinism discipline across worker counts, the ParallelFor /
// ParallelMap graph adapters and their edge cases, exception surfacing,
// run-after-shutdown semantics, nesting, and span tracing.

#include <atomic>
#include <cstddef>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/task_graph.h"
#include "base/task_runner.h"
#include "sched/executor.h"
#include "sched/parallel.h"

namespace sitm::sched {
namespace {

std::size_t Hc() { return Executor::DefaultConcurrency(); }

// Worker counts the determinism contract is pinned at (the ISSUE's
// {1, 2, hw} set, deduplicated).
std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2};
  if (Hc() != 1 && Hc() != 2) counts.push_back(Hc());
  return counts;
}

TEST(ExecutorTest, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(Executor::DefaultConcurrency(), 1u);
  Executor defaulted;
  EXPECT_EQ(defaulted.num_workers(), Executor::DefaultConcurrency());
  Executor two(2);
  EXPECT_EQ(two.num_workers(), 2u);
}

TEST(ExecutorTest, EmptyGraphRunsToCompletion) {
  Executor executor(2);
  EXPECT_TRUE(executor.Run(TaskGraph{}).ok());
}

TEST(ExecutorTest, EdgesAreHappensBeforeAtEveryWorkerCount) {
  // A chain a -> b -> c -> d: each link's write must be visible to the
  // next. Plain (non-atomic) ints make any ordering bug a real race.
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    int value = 0;
    TaskGraph graph;
    const TaskId a = graph.AddTask("a", [&] { value = 1; });
    const TaskId b = graph.AddTask("b", [&] { value = value * 10 + 2; });
    const TaskId c = graph.AddTask("c", [&] { value = value * 10 + 3; });
    const TaskId d = graph.AddTask("d", [&] { value = value * 10 + 4; });
    ASSERT_TRUE(graph.AddEdge(a, b).ok());
    ASSERT_TRUE(graph.AddEdge(b, c).ok());
    ASSERT_TRUE(graph.AddEdge(c, d).ok());
    ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    EXPECT_EQ(value, 1234) << workers << " workers";
  }
}

TEST(ExecutorTest, DiamondJoinSeesBothBranches) {
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    int left = 0;
    int right = 0;
    int joined = 0;
    TaskGraph graph;
    const TaskId a = graph.AddTask("a", [&] { left = 1; right = 2; });
    const TaskId b = graph.AddTask("b", [&] { left += 10; });
    const TaskId c = graph.AddTask("c", [&] { right += 20; });
    const TaskId d = graph.AddTask("d", [&] { joined = left + right; });
    ASSERT_TRUE(graph.AddEdge(a, b).ok());
    ASSERT_TRUE(graph.AddEdge(a, c).ok());
    ASSERT_TRUE(graph.AddEdge(b, d).ok());
    ASSERT_TRUE(graph.AddEdge(c, d).ok());
    ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    EXPECT_EQ(joined, 33) << workers << " workers";
  }
}

TEST(ExecutorTest, RunRejectsCyclicGraphsWithoutRunningAnything) {
  Executor executor(2);
  std::atomic<int> ran{0};
  TaskGraph graph;
  const TaskId a = graph.AddTask("a", [&] { ran.fetch_add(1); });
  const TaskId b = graph.AddTask("b", [&] { ran.fetch_add(1); });
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(graph.AddEdge(b, a).ok());
  EXPECT_FALSE(executor.Run(std::move(graph)).ok());
  EXPECT_EQ(ran.load(), 0);
}

TEST(ExecutorTest, ParallelMapByteIdenticalAcrossWorkerCounts) {
  // The determinism acceptance: the same map at nullptr (inline), 1, 2,
  // and hardware-concurrency workers returns byte-identical vectors.
  constexpr std::size_t kN = 4096;
  auto run = [](Executor* executor) {
    return ParallelMap<std::uint64_t>(
        executor, kN, [](std::size_t i) { return i * 2654435761u; },
        /*grain=*/29);
  };
  const std::vector<std::uint64_t> reference = run(nullptr);
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    EXPECT_EQ(run(&executor), reference) << workers << " workers";
  }
}

TEST(ExecutorTest, ParallelForZeroItemsNeverInvokesTheBody) {
  Executor executor(2);
  std::atomic<int> calls{0};
  ParallelFor(&executor, 0,
              [&calls](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(nullptr, 0,
              [&calls](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ExecutorTest, ParallelForRangeSmallerThanWorkersCoversExactlyOnce) {
  Executor executor(8);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    std::vector<std::atomic<int>> touched(n);
    for (auto& t : touched) t.store(0);
    ParallelFor(&executor, n,
                [&touched](std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    touched[i].fetch_add(1);
                  }
                });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ExecutorTest, ParallelForHonorsAnExplicitGrain) {
  Executor executor(2);
  constexpr std::size_t kN = 100;
  constexpr std::size_t kGrain = 7;
  Mutex mutex;
  std::vector<std::size_t> chunk_sizes;
  ParallelFor(
      &executor, kN,
      [&](std::size_t begin, std::size_t end) {
        MutexLock lock(mutex);
        chunk_sizes.push_back(end - begin);
      },
      kGrain);
  std::size_t total = 0;
  for (const std::size_t size : chunk_sizes) {
    EXPECT_LE(size, kGrain);
    total += size;
  }
  EXPECT_EQ(total, kN);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const std::size_t kN = 10007;  // prime: chunks never divide it evenly
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                    std::size_t{64}, kN, 2 * kN}) {
      std::vector<std::atomic<int>> hits(kN);
      for (auto& h : hits) h.store(0);
      ParallelFor(
          &executor, kN,
          [&hits](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          },
          grain);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " workers " << workers << " grain " << grain;
      }
    }
  }
}

TEST(ParallelForTest, NullPoolRunsOnCallingThread) {
  std::vector<int> hits(257, 0);  // no synchronization: must be single-threaded
  ParallelFor(nullptr, hits.size(), [&hits](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ParallelForTest, ChunkBoundariesDependOnlyOnSizeAndGrain) {
  // The determinism contract: per-chunk work decomposition is a function
  // of (n, grain), never of the worker count.
  const std::size_t kN = 1000;
  const std::size_t kGrain = 37;
  auto chunks_with = [&](std::size_t workers) {
    Executor executor(workers);
    Mutex mutex;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    ParallelFor(
        &executor, kN,
        [&mutex, &chunks](std::size_t begin, std::size_t end) {
          MutexLock lock(mutex);
          chunks.emplace(begin, end);
        },
        kGrain);
    return chunks;
  };
  const auto reference = chunks_with(1);
  EXPECT_EQ(reference.size(), (kN + kGrain - 1) / kGrain);
  EXPECT_EQ(chunks_with(2), reference);
  EXPECT_EQ(chunks_with(Hc()), reference);
}

TEST(ParallelForTest, ManySmallCallsDoNotWedgeThePool) {
  // Many short graphs back to back on one executor: every call must
  // complete while later calls reuse the same workers.
  Executor executor(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(
        &executor, 10,
        [&total](std::size_t begin, std::size_t end) {
          total.fetch_add(end - begin);
        },
        /*grain=*/1);
  }
  EXPECT_EQ(total.load(), 2000u);
}

TEST(ExecutorTest, ThrowingTaskSurfacesAsInternalAndRestStillRuns) {
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    std::atomic<int> ran{0};
    TaskGraph graph;
    graph.AddTask("healthy", [&] { ran.fetch_add(1); });
    graph.AddTask("exploding-task", [] {
      throw std::runtime_error("kaboom");
    });
    graph.AddTask("bystander", [&] { ran.fetch_add(1); });
    const Status status = executor.Run(std::move(graph));
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("exploding-task"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("kaboom"), std::string::npos)
        << status.message();
    EXPECT_EQ(ran.load(), 2);

    // The executor survives a failed run.
    TaskGraph again;
    std::atomic<int> after{0};
    again.AddTask("recovery", [&] { after.fetch_add(1); });
    EXPECT_TRUE(executor.Run(std::move(again)).ok());
    EXPECT_EQ(after.load(), 1);
  }
}

TEST(ExecutorTest, RunAfterShutdownExecutesInlineOnTheCallingThread) {
  Executor executor(2);
  executor.Shutdown();
  executor.Shutdown();  // idempotent
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed;
  int value = 0;
  TaskGraph graph;
  const TaskId a = graph.AddTask("a", [&] {
    observed = std::this_thread::get_id();
    value = 41;
  });
  const TaskId b = graph.AddTask("b", [&] { ++value; });
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(executor.Run(std::move(graph)).ok());
  EXPECT_EQ(observed, caller);
  EXPECT_EQ(value, 42);
}

TEST(ExecutorTest, NestedParallelForInsideATaskDoesNotDeadlock) {
  // A node of a running graph issues its own ParallelFor on the same
  // executor — the pipeline's shape (shard task -> inner loop). Caller
  // participation keeps this live even at one worker.
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    constexpr std::size_t kInner = 512;
    std::uint64_t sum = 0;
    TaskGraph graph;
    graph.AddTask("outer", [&executor, &sum] {
      std::vector<std::uint64_t> values(kInner, 0);
      ParallelFor(
          &executor, kInner,
          [&values](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) values[i] = i;
          },
          /*grain=*/32);
      sum = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
    });
    ASSERT_TRUE(executor.Run(std::move(graph)).ok());
    EXPECT_EQ(sum, kInner * (kInner - 1) / 2) << workers << " workers";
  }
}

TEST(ExecutorTest, TraceRecordsNamedTaskSpans) {
  Executor executor(2);
  TaskGraph graph;
  const TaskId a = graph.AddTask("alpha-task", [] {});
  const TaskId b = graph.AddTask("beta-task", [] {});
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(executor.Run(std::move(graph)).ok());
  const std::vector<TraceSpan> spans = executor.trace().Spans();
  bool saw_alpha = false;
  bool saw_beta = false;
  for (const TraceSpan& span : spans) {
    if (span.kind != TraceSpan::Kind::kTask) continue;
    const std::string name(span.name);
    if (name == "alpha-task") saw_alpha = true;
    if (name == "beta-task") saw_beta = true;
    EXPECT_GE(span.end_ns, span.begin_ns);
    EXPECT_GE(span.begin_ns, 0);
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
}

TEST(ExecutorTest, RunGraphNullExecutorRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed;
  TaskGraph graph;
  graph.AddTask("inline", [&] { observed = std::this_thread::get_id(); });
  ASSERT_TRUE(RunGraph(nullptr, std::move(graph)).ok());
  EXPECT_EQ(observed, caller);
}

// ---------------------------------------------------------------------------
// Detached Submit — the live ingest subsystem's dispatch primitive
// (segment compaction, HTTP connection handling).
// ---------------------------------------------------------------------------

/// Blocks until `flag` is true (callbacks run on worker threads, so the
/// test must wait without owning a joinable handle).
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

TEST(ExecutorTest, SubmitRunsDetachedAndInvokesCallback) {
  for (const std::size_t workers : WorkerCounts()) {
    Executor executor(workers);
    std::atomic<int> ran{0};
    std::atomic<bool> called{false};
    Status observed = Status::Internal("callback never ran");
    TaskGraph graph;
    const TaskId a = graph.AddTask("first", [&] { ran.fetch_add(1); });
    const TaskId b = graph.AddTask("second", [&] { ran.fetch_add(1); });
    ASSERT_TRUE(graph.AddEdge(a, b).ok());
    executor.Submit(std::move(graph), [&](Status status) {
      observed = std::move(status);
      called.store(true, std::memory_order_release);
    });
    AwaitFlag(called);
    EXPECT_TRUE(observed.ok()) << observed;
    EXPECT_EQ(ran.load(), 2) << workers << " workers";
  }
}

TEST(ExecutorTest, SubmitWithNullCallbackIsDrainedByShutdown) {
  Executor executor(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    TaskGraph graph;
    graph.AddTask("fire-and-forget", [&] { ran.fetch_add(1); });
    executor.Submit(std::move(graph), {});
  }
  // Shutdown's contract: every submitted graph finishes before it
  // returns — no sleep, no flag needed.
  executor.Shutdown();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ExecutorTest, SubmitFailurePropagatesToTheCallback) {
  Executor executor(2);
  std::atomic<bool> called{false};
  Status observed;
  TaskGraph graph;
  graph.AddTask("doomed-task", [] {
    throw std::runtime_error("submit-boom");
  });
  executor.Submit(std::move(graph), [&](Status status) {
    observed = std::move(status);
    called.store(true, std::memory_order_release);
  });
  AwaitFlag(called);
  ASSERT_FALSE(observed.ok());
  EXPECT_NE(observed.message().find("doomed-task"), std::string::npos)
      << observed.message();
  EXPECT_NE(observed.message().find("submit-boom"), std::string::npos)
      << observed.message();
}

TEST(ExecutorTest, SubmitValidationErrorDegradesToInline) {
  Executor executor(2);
  bool called = false;
  Status observed;
  TaskGraph cyclic;
  const TaskId a = cyclic.AddTask("a", [] {});
  const TaskId b = cyclic.AddTask("b", [] {});
  ASSERT_TRUE(cyclic.AddEdge(a, b).ok());
  ASSERT_TRUE(cyclic.AddEdge(b, a).ok());
  // Degenerate submissions run synchronously: the callback fires before
  // Submit returns, so plain (non-atomic) locals are safe.
  executor.Submit(std::move(cyclic), [&](Status status) {
    observed = std::move(status);
    called = true;
  });
  ASSERT_TRUE(called);
  EXPECT_FALSE(observed.ok());
}

TEST(ExecutorTest, SubmitAfterShutdownRunsInline) {
  Executor executor(2);
  executor.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed_thread;
  bool called = false;
  TaskGraph graph;
  graph.AddTask("post-shutdown", [&] {
    observed_thread = std::this_thread::get_id();
  });
  executor.Submit(std::move(graph), [&](Status status) {
    EXPECT_TRUE(status.ok()) << status;
    called = true;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(observed_thread, caller);
}

TEST(ExecutorTest, ManyConcurrentSubmitsAllComplete) {
  constexpr int kGraphs = 64;
  Executor executor(4);
  std::atomic<int> ran{0};
  std::atomic<int> callbacks{0};
  for (int i = 0; i < kGraphs; ++i) {
    TaskGraph graph;
    const TaskId a = graph.AddTask("work-a", [&] { ran.fetch_add(1); });
    const TaskId b = graph.AddTask("work-b", [&] { ran.fetch_add(1); });
    ASSERT_TRUE(graph.AddEdge(a, b).ok());
    executor.Submit(std::move(graph), [&](Status status) {
      EXPECT_TRUE(status.ok()) << status;
      callbacks.fetch_add(1, std::memory_order_release);
    });
  }
  executor.Shutdown();
  EXPECT_EQ(ran.load(), kGraphs * 2);
  EXPECT_EQ(callbacks.load(), kGraphs);
}

}  // namespace
}  // namespace sitm::sched
