#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "base/status.h"

namespace sitm {

/// \brief One unit of parallel work: a named `void()` body.
///
/// `name` feeds the scheduler's trace (truncated to the span name
/// width). Bodies follow the repo-wide slot discipline: each writes
/// caller-owned state that no other task of the same run touches, so the
/// tasks of a run are independent and need no ordering between them.
/// Bodies should not throw; a throw is captured by the runner and
/// surfaced as an Internal Status.
struct Task {
  std::string name;
  std::function<void()> fn;
};

/// \brief Abstract runner of flat task lists — the seam between the
/// layers that *describe* parallel work (core's pipeline, storage's
/// block encoding, mining's matrix fill, query fragments) and the
/// scheduler that runs it.
///
/// The concrete implementation is sched::Executor (span-traced); layers
/// below sched/ in the module DAG hold only this interface, so the
/// `core -> sched` include edge the layering manifest forbids never
/// comes back (scripts/analyze_deps.py gates it).
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Runs every task of `tasks` to completion and returns the
  /// lowest-index task failure, if any (every task still runs after a
  /// failure, so slot state stays deterministic). Implementations must be
  /// safe to call concurrently from any thread, including from inside a
  /// task of the same runner (nested runs must not deadlock).
  [[nodiscard]] virtual Status Run(std::vector<Task> tasks) = 0;

  /// Schedules `task` without waiting for it: the call returns once the
  /// task is queued. This is the seam background work (live segment
  /// compaction, HTTP connections) hangs off. A throw from the task is
  /// captured and dropped, so the task reports its own errors.
  virtual void Submit(Task task) = 0;

  /// Number of threads that can make progress on a run concurrently
  /// (>= 1). ParallelFor's grain formula reads this; it never affects
  /// results, only schedule shape.
  virtual std::size_t concurrency() const = 0;
};

/// \brief Runs `body(begin, end)` over chunks partitioning [0, n), one
/// task per chunk, on `runner`.
///
/// The calling thread participates (via TaskRunner::Run), and the loop
/// runs inline when `runner` is null or there is only one chunk. Chunk
/// boundaries are a function of (n, grain) only — never of the worker
/// count — so per-chunk initialization (e.g. seeding) stays reproducible
/// across worker counts.
///
/// `grain` is the chunk length; 0 picks one yielding ~4 chunks per
/// participant. `name` labels the chunk tasks in the trace. The body
/// must not throw: an escaping exception aborts the process.
void ParallelFor(TaskRunner* runner, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain = 0, const char* name = "for");

/// \brief Maps `fn(i)` over [0, n) on the runner, returning results in
/// index order regardless of execution order. T must be
/// default-constructible and movable.
///
/// Thread-safety: each index writes exactly one pre-sized slot of `out`
/// and no two chunks overlap, so the fill is race-free without locking —
/// the slot discipline every parallel caller (core/pipeline, mining
/// DistanceMatrix, storage block encoding, query/executor) relies on.
template <typename T, typename Fn>
std::vector<T> ParallelMap(TaskRunner* runner, std::size_t n, Fn&& fn,
                           std::size_t grain = 0, const char* name = "map") {
  std::vector<T> out(n);
  ParallelFor(
      runner, n,
      [&out, &fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
      },
      grain, name);
  return out;
}

}  // namespace sitm
