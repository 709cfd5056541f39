#pragma once

#include <cstdint>
#include <map>
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
/// graph defaulting and per-trajectory stages. Only the two streaming
/// bounds below are live-specific.
struct IncrementalOptions : core::StageOptions {
  /// How far event time may run behind the maximum start time seen
  /// before a detection counts as late. The watermark is
  /// `max(start seen) - allowed_lateness`; arrivals starting before it
  /// are dropped (counted in stats().late_dropped) because the sorted
  /// prefix they belong to has already been consumed.
  Duration allowed_lateness = Duration::Minutes(30);

  /// Bound on tracked moving objects (0 = unbounded). When exceeded,
  /// the least-recently-active object is force-finalized and forgotten
  /// — see IncrementalBuilder's eviction note for the (documented,
  /// counted) divergence from batch semantics this can introduce.
  std::size_t max_open_objects = 0;
};

/// Observable state of the stream (monotone counters plus the current
/// open-state footprint; peaks are the bench's bounded-memory oracle).
struct IncrementalStats {
  /// Event-time low-water mark; meaningful once has_watermark.
  Timestamp watermark;
  bool has_watermark = false;
  std::size_t records_in = 0;
  std::size_t late_dropped = 0;
  std::size_t evicted_objects = 0;
  std::size_t finalized = 0;
  /// Objects the watermark sweeps visited (Drain not counted). Only due
  /// objects are visited, and each visit consumes a detection or
  /// flushes a trajectory, so this never exceeds records_in + finalized.
  std::size_t objects_swept = 0;
  /// Current footprint.
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
/// eviction and the footprint stats are streaming-specific. Cleaning and
/// assembly are the batch builders' core::Assembler, and finalized
/// trajectories pass through core::StageOptions::Apply.
///
/// Cost: a batch costs O(batch + due objects) ordered-index operations,
/// not O(objects ever seen). Every object with buffered detections or an
/// open trace carries one due key in an ordered index — the earlier of
/// its smallest pending start and its open trace's end + session_gap —
/// and is due exactly when that key is below the watermark. A sweep
/// visits only the due prefix of the index; objects left out would
/// consume and flush nothing. Eviction takes its victim from a second
/// index ordered by last activity.
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
/// Eviction divergence: force-finalizing an object consumes its whole
/// buffer and drops its cleaning state, so a detection of that object
/// arriving later is cleaned against nothing and starts a new session
/// — batch would have seen both. This is the deliberate bounded-memory
/// trade; it is counted (evicted_objects) and exercised by
/// bench_s1_streaming_ingest, while the equivalence test runs with
/// bounds the stream never hits.
///
/// Not thread-safe: callers (live::LiveService) serialize access.
class IncrementalBuilder {
 public:
  explicit IncrementalBuilder(IncrementalOptions options);

  /// Ingests one batch (any order, any objects), appending every
  /// trajectory finalized by the resulting watermark advance — and by
  /// any eviction it forces — to `finalized`. A batch holding an invalid
  /// object or cell id is rejected whole: nothing of it is admitted or
  /// counted.
  [[nodiscard]] Status Ingest(const std::vector<core::RawDetection>& batch,
                              std::vector<core::SemanticTrajectory>* finalized);

  /// End-of-stream: consumes every buffered detection and flushes every
  /// open trace as if the watermark passed infinity, then forgets all
  /// per-object state. Counters and the watermark survive; a later
  /// Ingest starts objects from a clean slate.
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
    /// Ingest-sequence number of the last admission (eviction order);
    /// this object's key in by_activity_. Kept only when
    /// max_open_objects bounds the object count.
    std::uint64_t last_activity = 0;
    /// This object's key in due_; empty when nothing is pending and no
    /// trace is open.
    std::optional<Timestamp> due;
  };

  /// Feeds `state`'s sorted pending prefix below `watermark` (all of it
  /// when `consume_all`) to the assembler.
  [[nodiscard]] Status ConsumeReady(ObjectId object, ObjectState& state,
                                    Timestamp watermark, bool consume_all,
                                    std::vector<core::SemanticTrajectory>* out);
  /// Force-finalizes and forgets the least-recently-active object.
  [[nodiscard]] Status EvictOne(std::vector<core::SemanticTrajectory>* out);
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
  /// Unordered: sweeps, Drain and eviction pick objects through due_
  /// and by_activity_, and sort what they visit by id.
  std::unordered_map<ObjectId, ObjectState> objects_;
  /// (due key, object) for every object whose ObjectState::due is set.
  std::set<std::pair<Timestamp, ObjectId>> due_;
  /// last_activity -> object for every tracked object; begin() is the
  /// eviction victim. Empty when max_open_objects is 0 (no eviction).
  std::map<std::uint64_t, ObjectId> by_activity_;
  bool has_max_start_ = false;
  Timestamp max_start_;
  std::uint64_t activity_seq_ = 0;
  IncrementalStats stats_;
};

}  // namespace sitm::live
