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
#include "base/task_runner.h"
#include "base/thread_annotations.h"
#include "sched/trace.h"

namespace sitm::sched {

/// \brief Thread-pool executor of flat task lists — the scheduling
/// substrate behind every parallel layer (pipeline shards, matrix
/// blocks, store block encoding, query chunks).
///
/// Every task of every run goes onto one shared FIFO queue, which the
/// workers drain in order. The calling thread of Run() participates in
/// execution, so a run completes even when every worker is busy with
/// other runs — which also makes nested Run() (a task running its own
/// ParallelFor) deadlock-free.
///
/// Determinism contract: execution order is unspecified, so
/// deterministic results are the task author's obligation: every task
/// writes its own pre-assigned slot and merged output is folded in index
/// order, never completion order. All parallel layers in this codebase
/// follow that rule, which is why their output is byte-identical at
/// every worker count.
///
/// Task bodies must not throw; a throw is captured per-task (the rest of
/// the run still executes, keeping slot state deterministic) and Run
/// reports the lowest-index failure as an Internal Status.
///
/// Every run is traced: task spans land in per-lane ring buffers
/// (`trace()`), dumpable as JSON for stage-overlap inspection. Lane
/// `num_workers()` is shared by external callers.
///
/// Executor is the concrete sitm::TaskRunner: work-describing layers
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

  /// Runs every task to completion and returns the lowest-index task
  /// failure, if any. Safe to call concurrently from any thread,
  /// including from inside a task of this executor. After Shutdown() the
  /// tasks run inline on the calling thread, in index order.
  [[nodiscard]] Status Run(std::vector<Task> tasks) override
      SITM_EXCLUDES(mutex_);

  /// Detached submission: the task is queued and Submit returns without
  /// participating; a worker runs it, and Shutdown() waits for it. After
  /// Shutdown() the task runs inline on the calling thread.
  void Submit(Task task) override SITM_EXCLUDES(mutex_);

  /// Blocks until every active run (submitted tasks included) has
  /// finished, then joins the workers. Idempotent; later Run() calls
  /// execute inline.
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
  /// One queued task: an index into a live run. Holding the RunState
  /// keeps the task alive until the thread running it lets go.
  struct QueuedTask {
    std::shared_ptr<RunState> run;
    std::size_t index = 0;
  };

  /// Queues every task of `run`, or returns false (queuing nothing)
  /// after Shutdown().
  bool Enqueue(const std::shared_ptr<RunState>& run) SITM_EXCLUDES(mutex_);
  void WorkerLoop(std::size_t index) SITM_EXCLUDES(mutex_);
  /// Pops the oldest queued task, if any.
  bool TryAcquire(QueuedTask* out) SITM_EXCLUDES(mutex_);
  /// Runs one task, then counts it off its run.
  void ExecuteTask(QueuedTask task, std::size_t lane) SITM_EXCLUDES(mutex_);
  /// Drops one run from active_runs_ and wakes Shutdown() at zero.
  void RetireRun() SITM_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar runs_idle_;
  bool shutdown_ SITM_GUARDED_BY(mutex_) = false;
  bool joined_ SITM_GUARDED_BY(mutex_) = false;
  /// Runs not yet retired: a Run() until its caller stops touching the
  /// executor, a Submit() until its task ends. Shutdown drains to 0.
  std::size_t active_runs_ SITM_GUARDED_BY(mutex_) = 0;
  std::deque<QueuedTask> queue_ SITM_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;  // sitm-lint: allow(naked-thread)
  std::chrono::steady_clock::time_point epoch_;
  TraceSink trace_;
};

}  // namespace sitm::sched
