#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"

namespace sitm::sched {

/// \brief One recorded event in an executor run.
///
/// POD on purpose: spans are copied into per-lane rings on the hot path,
/// so the name is a fixed-width truncated buffer rather than a string.
struct TraceSpan {
  enum class Kind : std::uint8_t {
    kTask,  ///< A task body ran from begin_ns to end_ns.
    /// Never recorded: the executor has one shared queue and no stealing.
    /// Kept because perfbench's SchedWindow still counts it (its
    /// `sched.steals` metric, which reads 0).
    kSteal,
  };

  /// Truncating width of `name` (including the terminating NUL).
  static constexpr std::size_t kNameWidth = 24;

  Kind kind = Kind::kTask;
  /// Worker index, or the executor's external lane (== num_workers) for
  /// spans recorded by non-worker callers participating in a Run.
  std::uint32_t lane = 0;
  char name[kNameWidth] = {};
  /// Nanoseconds since the owning executor's construction.
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// \brief Always-on per-lane ring buffers of TraceSpans.
///
/// Each lane (one per worker plus one shared external lane) keeps the
/// most recent `capacity` spans; older spans are overwritten and counted
/// in dropped(). Recording takes only that lane's mutex, so workers never
/// contend with each other on the hot path — only external callers share
/// a lane. Snapshot/dump methods lock lanes one at a time, so they can
/// run concurrently with recording (the snapshot is then simply a point
/// in time per lane).
class TraceSink {
 public:
  /// `lanes` rings of `capacity` spans each.
  explicit TraceSink(std::size_t lanes, std::size_t capacity = 8192);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  std::size_t num_lanes() const { return lanes_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Records a task span on `lane`. `name` is truncated to
  /// TraceSpan::kNameWidth - 1 characters.
  void RecordTask(std::size_t lane, const std::string& name,
                  std::int64_t begin_ns, std::int64_t end_ns);

  /// Copies out every retained span, sorted by begin_ns (ties by lane).
  std::vector<TraceSpan> Spans() const;

  /// Total spans overwritten before they could be read, across lanes.
  std::size_t dropped() const;

  /// Serializes the retained spans as a self-describing JSON object:
  /// {"lanes": N, "capacity": C, "dropped": D, "spans": [...]}, spans
  /// sorted by begin_ns. Stable field order, suitable for jq / the
  /// examples' post-processing.
  std::string ToJson() const;

  /// Writes ToJson() to `path` (truncating). IOError on failure.
  [[nodiscard]] Status WriteJson(const std::string& path) const;

  /// Discards all retained spans and resets the dropped counter.
  void Clear();

 private:
  struct Lane {
    mutable Mutex mutex;
    /// Ring storage; grows to `capacity_` then wraps at `next`.
    std::vector<TraceSpan> ring SITM_GUARDED_BY(mutex);
    /// Next write position when the ring is full.
    std::size_t next SITM_GUARDED_BY(mutex) = 0;
    std::size_t dropped SITM_GUARDED_BY(mutex) = 0;
  };

  void Record(std::size_t lane, const TraceSpan& span);

  std::size_t capacity_;
  /// Sized at construction, const thereafter (lane objects themselves
  /// hold the mutable state).
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace sitm::sched
