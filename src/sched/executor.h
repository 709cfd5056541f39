#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/task_graph.h"
#include "base/task_runner.h"
#include "base/thread_annotations.h"
#include "sched/trace.h"

namespace sitm::sched {

/// \brief Work-stealing executor for TaskGraphs — the scheduling
/// substrate behind every parallel layer (pipeline shards, matrix
/// blocks, store block encoding, query chunks).
///
/// Each worker owns a deque: it pushes newly-ready successors onto the
/// back and pops its own back (LIFO, depth-first locality); idle workers
/// steal from other deques' fronts (FIFO, oldest-first). Graphs injected
/// by external threads seed a shared injection queue. The calling thread
/// of Run() participates in execution, so a graph completes even when
/// every worker is busy with other runs — which also makes nested Run()
/// (a graph node running its own ParallelFor) deadlock-free.
///
/// Determinism contract: scheduling order is unspecified, so — exactly
/// as with the fork-join pool this replaces — deterministic results are
/// the graph author's obligation: every task writes its own pre-assigned
/// slot and merged output is folded in task-id order, never completion
/// order. All sched-facing layers in this codebase follow that rule,
/// which is why their output is byte-identical at every worker count.
///
/// Task bodies must not throw; a throw is captured per-task (the rest of
/// the graph still executes, keeping slot state deterministic) and Run
/// reports the lowest-id failure as an Internal Status.
///
/// Every run is traced: task spans and steal events land in per-lane
/// ring buffers (`trace()`), dumpable as JSON for stage-overlap
/// inspection. Lane `num_workers()` is shared by external callers.
///
/// Executor is the concrete sitm::TaskRunner: graph-describing layers
/// (core/pipeline, storage, mining, query) hold the base interface and
/// never include sched/ headers — the layering manifest forbids that
/// edge — while entry points construct an Executor and pass it down.
class Executor : public TaskRunner {
 public:
  /// Spawns `num_workers` workers; 0 means DefaultConcurrency().
  explicit Executor(std::size_t num_workers = 0);

  /// Shutdown(): drains active runs, then joins the workers.
  ~Executor() override;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t num_workers() const { return workers_.size(); }

  /// TaskRunner: parallel lanes available to a run (the workers; the
  /// calling thread participates on top).
  std::size_t concurrency() const override { return workers_.size(); }

  /// std::thread::hardware_concurrency(), clamped to >= 1.
  static std::size_t DefaultConcurrency();

  /// Executes `graph` to completion (validating it first) and returns
  /// the lowest-id task failure, if any. Safe to call concurrently from
  /// any thread, including from inside a task of this executor. After
  /// Shutdown() the graph runs inline on the calling thread, still
  /// deterministically.
  [[nodiscard]] Status Run(TaskGraph graph) override SITM_EXCLUDES(mutex_);

  /// Truly detached submission: the graph is seeded onto the workers and
  /// Submit returns without participating. The last-finishing task
  /// invokes `done` (off every executor lock) with the lowest-id task
  /// failure, then retires the run — Shutdown() therefore drains
  /// submitted graphs *and* their callbacks before joining. Validation
  /// errors, empty graphs, and submissions after Shutdown() degrade to
  /// the synchronous default (run inline, `done` before returning).
  /// `done` runs on a worker thread: it must not throw, block
  /// indefinitely, or Shutdown()/destroy this executor.
  void Submit(TaskGraph graph, std::function<void(Status)> done) override
      SITM_EXCLUDES(mutex_);

  /// Blocks until every active Run has finished, then joins the
  /// workers. Idempotent; later Run() calls execute inline.
  void Shutdown() SITM_EXCLUDES(mutex_);

  /// The span sink. Always on; Clear() it around a measured region to
  /// scope a dump to one run.
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }

  /// Nanoseconds since this executor was constructed (the trace
  /// timebase).
  std::int64_t NowNs() const;

 private:
  struct RunState;
  /// One schedulable unit: a node of a live run. Holding the RunState
  /// keeps a queued task's graph alive even if the run's caller has
  /// already been answered.
  struct Task {
    std::shared_ptr<RunState> run;
    TaskId id = 0;
  };
  struct WorkerState {
    Mutex mutex;
    std::deque<Task> deque SITM_GUARDED_BY(mutex);
  };

  void WorkerLoop(std::size_t index) SITM_EXCLUDES(mutex_);
  /// Invokes a detached run's callback (off every executor lock) and
  /// retires the run from active_runs_.
  void FinishDetachedRun(RunState& run) SITM_EXCLUDES(mutex_);
  /// Pops work for `lane`: own deque back, then the injection queue,
  /// then steal another deque's front (recording a steal span).
  bool TryAcquire(std::size_t lane, Task* out) SITM_EXCLUDES(mutex_);
  /// Runs one task, then releases its successors and its run counter.
  void ExecuteTask(Task task, std::size_t lane) SITM_EXCLUDES(mutex_);
  /// Makes `tasks` schedulable (owner deque for workers, injection
  /// queue otherwise) and wakes sleepers.
  void PushReady(std::vector<Task> tasks, std::size_t lane)
      SITM_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar runs_idle_;
  bool shutdown_ SITM_GUARDED_BY(mutex_) = false;
  bool joined_ SITM_GUARDED_BY(mutex_) = false;
  /// Runs currently between Run() entry and exit; Shutdown drains to 0.
  std::size_t active_runs_ SITM_GUARDED_BY(mutex_) = 0;
  /// Bumped on every push; sleepers capture it before scanning deques
  /// and re-sleep only while it is unchanged, so a push between scan and
  /// sleep is never lost.
  std::uint64_t work_epoch_ SITM_GUARDED_BY(mutex_) = 0;
  /// Tasks seeded by external threads / pushed by external lanes.
  std::deque<Task> injected_ SITM_GUARDED_BY(mutex_);
  /// Sized in the constructor before any worker starts; const
  /// thereafter (each WorkerState guards its own deque).
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;  // sitm-lint: allow(naked-thread)
  std::chrono::steady_clock::time_point epoch_;
  TraceSink trace_;
};

}  // namespace sitm::sched
