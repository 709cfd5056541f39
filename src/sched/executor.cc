#include "sched/executor.h"

#include <exception>
#include <string>
#include <utility>

namespace sitm::sched {

namespace {

/// Identifies the current thread as worker `index` of `executor`, so a
/// nested Run() records its spans on the worker's own trace lane instead
/// of the shared external lane.
struct WorkerIdentity {
  Executor* executor = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

/// Renders the in-flight exception as a message ("std::exception" /
/// "unknown exception" fallbacks). Call only from a catch block.
std::string DescribeCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    const char* what = e.what();
    return (what == nullptr || what[0] == '\0') ? "std::exception" : what;
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

/// Shared state of one Run() or Submit(): the moved-in tasks plus
/// completion accounting. Held by shared_ptr from every queued task, so
/// the thread finishing the last task never touches freed state.
struct Executor::RunState {
  RunState(std::vector<Task> run_tasks, bool is_detached)
      : tasks(std::move(run_tasks)),
        errors(tasks.size()),
        detached(is_detached),
        remaining(tasks.size()) {}

  /// Runs task `index`, capturing a throw into its error slot.
  void Execute(std::size_t index) {
    try {
      tasks[index].fn();
    } catch (...) {
      errors[index] = DescribeCurrentException();
    }
  }

  /// Post-Shutdown() form: every task on the calling thread, in index
  /// order, with the same exception capture.
  void ExecuteInline() {
    for (std::size_t i = 0; i < tasks.size(); ++i) Execute(i);
  }

  /// Counts one finished task off; true for exactly one call, the last.
  bool Finish() {
    MutexLock lock(mutex);
    if (--remaining != 0) return false;
    done.NotifyAll();
    return true;
  }

  bool Finished() {
    MutexLock lock(mutex);
    return remaining == 0;
  }

  void AwaitDone() {
    MutexLock lock(mutex);
    while (remaining != 0) done.Wait(lock);
  }

  /// The lowest-index task failure (OK when none). Call only after
  /// AwaitDone() or ExecuteInline(): observing remaining == 0 under
  /// `mutex` orders every error-slot write before these reads.
  Status Failure() const {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!errors[i].empty()) {
        return Status::Internal("sched: task '" + tasks[i].name + "' (#" +
                                std::to_string(i) + ") failed: " + errors[i]);
      }
    }
    return Status::OK();
  }

  const std::vector<Task> tasks;
  /// One slot per task, written only by the thread that executed it.
  std::vector<std::string> errors;
  /// Submit()ted: no caller waits, so the thread finishing the last task
  /// retires the run. A waited Run() is retired by its caller, once it
  /// no longer touches the executor.
  const bool detached;

  Mutex mutex;
  CondVar done;
  /// Tasks not yet finished executing.
  std::size_t remaining SITM_GUARDED_BY(mutex);
};

Executor::Executor(std::size_t num_workers)
    : epoch_(std::chrono::steady_clock::now()),
      trace_((num_workers == 0 ? DefaultConcurrency() : num_workers) + 1) {
  if (num_workers == 0) num_workers = DefaultConcurrency();
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() { Shutdown(); }

std::size_t Executor::DefaultConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::int64_t Executor::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Executor::Shutdown() {
  bool join = false;
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    work_available_.NotifyAll();
    while (active_runs_ != 0) runs_idle_.Wait(lock);
    if (!joined_) {
      joined_ = true;
      join = true;
    }
  }
  if (join) {
    for (std::thread& worker : workers_) worker.join();
  }
}

Status Executor::Run(std::vector<Task> tasks) {
  if (tasks.empty()) return Status::OK();
  auto run = std::make_shared<RunState>(std::move(tasks), false);
  if (!Enqueue(run)) {
    run->ExecuteInline();
    return run->Failure();
  }

  // The caller helps drain the queue until its own run is done or every
  // queued task has been taken. Any task helps: running another run's
  // work while ours is in flight keeps the caller's core busy.
  const std::size_t lane = tls_worker.executor == this
                               ? tls_worker.index
                               : workers_.size();  // shared external lane
  QueuedTask task;
  while (!run->Finished() && TryAcquire(&task)) {
    ExecuteTask(std::move(task), lane);
  }
  run->AwaitDone();
  RetireRun();
  return run->Failure();
}

void Executor::Submit(Task task) {
  std::vector<Task> tasks;
  tasks.push_back(std::move(task));
  auto run = std::make_shared<RunState>(std::move(tasks), true);
  if (!Enqueue(run)) run->ExecuteInline();
}

bool Executor::Enqueue(const std::shared_ptr<RunState>& run) {
  MutexLock lock(mutex_);
  // Post-shutdown work runs inline on the caller: degraded to
  // sequential, never dropped.
  if (shutdown_) return false;
  ++active_runs_;
  for (std::size_t i = 0; i < run->tasks.size(); ++i) {
    queue_.push_back(QueuedTask{run, i});
  }
  work_available_.NotifyAll();
  return true;
}

void Executor::WorkerLoop(std::size_t index) {
  tls_worker.executor = this;
  tls_worker.index = index;
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !(shutdown_ && active_runs_ == 0)) {
        work_available_.Wait(lock);
      }
      // Queued tasks belong to active runs, so an empty queue here means
      // the executor is shut down and drained.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteTask(std::move(task), index);
  }
}

bool Executor::TryAcquire(QueuedTask* out) {
  MutexLock lock(mutex_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Executor::ExecuteTask(QueuedTask task, std::size_t lane) {
  RunState& run = *task.run;
  const std::int64_t begin_ns = NowNs();
  run.Execute(task.index);
  trace_.RecordTask(lane, run.tasks[task.index].name, begin_ns, NowNs());
  if (run.Finish() && run.detached) RetireRun();
}

void Executor::RetireRun() {
  MutexLock lock(mutex_);
  if (--active_runs_ != 0) return;
  runs_idle_.NotifyAll();
  // Sleeping workers gate their exit on (shutdown_ && no active runs); a
  // shutdown that raced this run needs them re-woken.
  if (shutdown_) work_available_.NotifyAll();
}

}  // namespace sitm::sched
