#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/builder.h"
#include "core/pipeline.h"
#include "core/trajectory.h"

namespace sitm::live {

/// Options for the streaming builder. The inherited core::StageOptions
/// are the batch pipeline's own: the same build step, config checks,
/// graph defaulting and per-trajectory stages. Only the streaming bound
/// below is live-specific.
struct IncrementalOptions : core::StageOptions {
  /// How far event time may run behind the maximum start time seen
  /// before a detection counts as late. The watermark is
  /// `max(start seen) - allowed_lateness`; arrivals starting before it
  /// are dropped (counted in stats().late_dropped) because the sorted
  /// prefix they belong to has already been consumed.
  Duration allowed_lateness = Duration::Minutes(30);
};

/// Observable state of the stream (monotone counters plus the current
/// open-state footprint; peaks are the bench's bounded-memory oracle).
struct IncrementalStats {
  /// Event-time low-water mark; meaningful once has_watermark.
  Timestamp watermark;
  bool has_watermark = false;
  std::size_t records_in = 0;
  std::size_t late_dropped = 0;
  /// Objects a sweep left with nothing buffered and no open trace, and
  /// so stopped tracking (Drain not counted).
  std::size_t retired_objects = 0;
  std::size_t finalized = 0;
  /// Objects the watermark sweeps visited (Drain not counted). Only due
  /// objects are visited, and each visit consumes a detection or
  /// flushes a trajectory, so this never exceeds records_in + finalized.
  std::size_t objects_swept = 0;
  /// Current footprint: tracked objects (each with buffered detections
  /// or an open trace) and buffered detections.
  std::size_t open_objects = 0;
  std::size_t buffered_detections = 0;
  /// High-water marks of the two fields above.
  std::size_t peak_open_objects = 0;
  std::size_t peak_buffered_detections = 0;
  /// The shared build step's counters (core::Assembler::report());
  /// its records_in and objects_seen stay zero.
  core::BuildReport build;
};

/// \brief Streaming front end of the build step: consumes raw
/// detections out of arrival order and emits finalized semantic
/// trajectories once the watermark guarantees no earlier-sorting
/// detection can still arrive.
///
/// Only admission, lateness, the pending buffer, the watermark sweep,
/// retirement and the footprint stats are streaming-specific. Cleaning and
/// assembly are the batch builders' core::Assembler, and finalized
/// trajectories pass through core::StageOptions::Apply.
///
/// Cost: a batch costs O(batch + due objects) ordered-index operations,
/// not O(objects ever seen). Every object with buffered detections or an
/// open trace carries one due key in an ordered index — the earlier of
/// its smallest pending start and its open trace's end + session_gap —
/// and is due exactly when that key is below the watermark. A sweep
/// visits only the due prefix of the index; objects left out would
/// consume and flush nothing.
///
/// Equivalence contract (pinned by tests/live_equivalence_property_test
/// through the full live stack): feed any permutation of a detection
/// set in batches whose lateness stays within `allowed_lateness` (or
/// finish with Drain()), and the finalized trajectories are exactly the
/// batch build of that set — same traces, same annotations — up to
/// trajectory ids, which are assigned in *finalization* order here
/// (batch order is the global (object, start) rank, unknowable online;
/// live::SegmentStore::Snapshot re-derives the canonical ids).
///
/// Why the watermark suffices:
///  - Consumption takes, per object, the sorted (start, end) prefix
///    with start strictly below the watermark W. Every consumed
///    detection started before any future admission (late arrivals
///    below W are dropped by definition), and a tie at W stays
///    buffered — an equal-start, smaller-end arrival must still sort
///    first — so the consumed sequence IS the batch sort order, and the
///    assembler's per-object state sees what batch would.
///  - An open trace flushes once W - trace.end() exceeds the session
///    gap: any future detection starts at or after W, so its gap from
///    the trace is even larger (overlap clipping only moves starts
///    later) and the batch builder would split there too.
///
/// Retirement: a sweep visit that leaves an object with no due key —
/// nothing buffered, no open trace — erases it, so open state holds
/// only objects with a detection meeting the event-time window
/// [W - session_gap, max start seen], plus one batch of new arrivals,
/// not every object seen. What a returning object is cleaned against
/// is its last kept detection, which ended a trace a sweep flushed
/// because W - end exceeded session_gap >= 0; every later admission
/// starts at or after W. So containment (`end <= last.end`) and overlap
/// clipping (`start <= last.end`) can never fire against it again —
/// zero-length detections start at W or later too, and inverted ones
/// are rejected at admission when drop_zero_duration is off. Only the
/// graph filter still reads it, for its cell: with
/// drop_graph_inconsistent on and a graph set, each retired object's
/// last kept detection is kept and handed back when the object
/// returns; otherwise nothing is kept. So with the graph filter on, one
/// detection per retired object stays until Drain(): that part of the
/// open state grows with every object seen, not with the active ones.
/// Many objects active at once are an overload question for admission
/// control, not for this builder.
///
/// Not thread-safe: callers (live::LiveService) serialize access.
class IncrementalBuilder {
 public:
  explicit IncrementalBuilder(IncrementalOptions options);

  /// Ingests one batch (any order, any objects), appending every
  /// trajectory finalized by the resulting watermark advance to
  /// `finalized`. A batch holding a detection core::CheckDetection
  /// rejects is rejected whole: nothing of it is admitted or counted.
  [[nodiscard]] Status Ingest(const std::vector<core::RawDetection>& batch,
                              std::vector<core::SemanticTrajectory>* finalized);

  /// End-of-stream: consumes every buffered detection and flushes every
  /// open trace as if the watermark passed infinity, then forgets all
  /// per-object state, retired objects' included. Counters and the
  /// watermark survive; a later Ingest starts objects from a clean
  /// slate.
  [[nodiscard]] Status Drain(std::vector<core::SemanticTrajectory>* finalized);

  const IncrementalStats& stats() const { return stats_; }

  /// Next provisional trajectory id (what the next finalized trajectory
  /// will be numbered).
  TrajectoryId next_id() const { return assembler_.next_id(); }

 private:
  struct ObjectState {
    /// Admitted, not yet consumed; sorted by core::DetectionBefore at
    /// consumption.
    std::vector<core::RawDetection> pending;
    /// The assembler's state: last kept detection and open trace.
    core::OpenObject open;
    /// This object's key in due_; empty when nothing is pending and no
    /// trace is open.
    std::optional<Timestamp> due;
  };

  /// Feeds `state`'s sorted pending prefix below `watermark` (all of it
  /// when `consume_all`) to the assembler.
  [[nodiscard]] Status ConsumeReady(ObjectId object, ObjectState& state,
                                    Timestamp watermark, bool consume_all,
                                    std::vector<core::SemanticTrajectory>* out);
  /// Ids of the objects whose due key is below `watermark` (of every
  /// object with a due key when `all`), ascending.
  std::vector<ObjectId> DueObjects(Timestamp watermark, bool all) const;
  /// Moves `object`'s due_ entry to `due` (none when empty).
  void SetDue(ObjectId object, ObjectState& state,
              std::optional<Timestamp> due);
  /// Recomputes `object`'s due key after a sweep visit, which leaves
  /// its pending buffer sorted.
  void RefreshDue(ObjectId object, ObjectState& state);
  /// Runs the per-trajectory stages on out[first..] and updates stats.
  [[nodiscard]] Status Finalize(std::size_t first,
                                std::vector<core::SemanticTrajectory>* out);
  void UpdateFootprint();

  IncrementalOptions options_;
  core::Assembler assembler_;
  /// Tracked objects, each with a due key. Unordered: sweeps and Drain
  /// pick objects through due_ and sort what they visit by id.
  std::unordered_map<ObjectId, ObjectState> objects_;
  /// (due key, object) for every tracked object.
  std::set<std::pair<Timestamp, ObjectId>> due_;
  /// The last kept detection of each retired object, for the graph
  /// filter; empty unless it is on.
  std::unordered_map<ObjectId, core::RawDetection> retired_last_kept_;
  bool has_max_start_ = false;
  Timestamp max_start_;
  IncrementalStats stats_;
};

}  // namespace sitm::live
