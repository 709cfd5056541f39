#pragma once

#include <cstdint>
#include <map>
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
    /// Ingest-sequence number of the last admission (eviction order).
    std::uint64_t last_activity = 0;
  };

  /// Feeds `state`'s sorted pending prefix below `watermark` (all of it
  /// when `consume_all`) to the assembler.
  [[nodiscard]] Status ConsumeReady(ObjectId object, ObjectState& state,
                                    Timestamp watermark, bool consume_all,
                                    std::vector<core::SemanticTrajectory>* out);
  /// Force-finalizes and forgets the least-recently-active object.
  [[nodiscard]] Status EvictOne(std::vector<core::SemanticTrajectory>* out);
  /// Runs the per-trajectory stages on out[first..] and updates stats.
  [[nodiscard]] Status Finalize(std::size_t first,
                                std::vector<core::SemanticTrajectory>* out);
  void UpdateFootprint();

  IncrementalOptions options_;
  core::Assembler assembler_;
  /// Ordered so watermark sweeps visit objects deterministically.
  std::map<ObjectId, ObjectState> objects_;
  bool has_max_start_ = false;
  Timestamp max_start_;
  std::uint64_t activity_seq_ = 0;
  IncrementalStats stats_;
};

}  // namespace sitm::live
