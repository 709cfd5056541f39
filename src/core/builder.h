#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/trajectory.h"
#include "indoor/nrg.h"

namespace sitm::core {

/// \brief One raw symbolic detection: the moving object's device was
/// observed inside `cell` over [start, end].
///
/// This is the shape of the Louvre dataset's "zone detections" (§4.1):
/// raw geometric positions already aggregated into symbolic cells by the
/// positioning pipeline.
struct RawDetection {
  ObjectId object;
  CellId cell;
  Timestamp start;
  Timestamp end;

  RawDetection() = default;
  RawDetection(ObjectId o, CellId c, Timestamp s, Timestamp e)
      : object(o), cell(c), start(s), end(e) {}
};

/// Options controlling raw-detection cleaning and trace assembly.
struct BuilderOptions {
  /// Drop detections with end <= start ("around 10% of the zone
  /// detections have a duration of zero value, forcing us to filter them
  /// out as detection errors", §4.1).
  bool drop_zero_duration = true;
  /// Merge consecutive detections of the same cell into one presence
  /// interval when the gap between them is at most this long.
  Duration same_cell_merge_gap = Duration::Minutes(5);
  /// Start a new trajectory when two consecutive detections of the same
  /// object are separated by more than this (session splitting: the
  /// Louvre's returning visitors made second/third visits, "although not
  /// necessarily on different days", so wall-clock grouping by day is
  /// wrong — gaps define visits).
  Duration session_gap = Duration::Hours(2);
  /// Trajectory-level annotations attached to every built trajectory
  /// (Def. 3.1 requires a non-empty A_traj; callers refine later).
  AnnotationSet default_annotations =
      AnnotationSet{{AnnotationKind::kActivity, "visit"}};
  /// First id to assign to built trajectories (sequential from here).
  TrajectoryId first_trajectory_id = TrajectoryId(1);
  /// Optional accessibility graph: when set, transition boundary ids are
  /// filled in for cell changes served by exactly one accessibility
  /// edge, and detections are kept even if not graph-consistent (the
  /// graph "can assist in filtering out data errors", §4.2 — see
  /// `drop_graph_inconsistent`).
  const indoor::Nrg* graph = nullptr;
  /// With a graph set: drop detections whose cell is not reachable from
  /// the previous detection's cell by one accessibility edge or by any
  /// path (teleports — localization glitches).
  bool drop_graph_inconsistent = false;

  /// InvalidArgument when default_annotations is empty or session_gap
  /// is negative.
  [[nodiscard]] Status Validate() const;
};

/// Counters describing what the builder did.
struct BuildReport {
  std::size_t records_in = 0;
  std::size_t zero_duration_dropped = 0;
  std::size_t overlaps_clipped = 0;
  std::size_t contained_dropped = 0;
  std::size_t graph_inconsistent_dropped = 0;
  std::size_t merged_same_cell = 0;
  std::size_t objects_seen = 0;
  std::size_t trajectories_out = 0;
};

/// The order every build step consumes one object's detections in:
/// by start, then by end, then by cell. Total over one object's
/// distinct detections, so the consumed sequence never depends on
/// arrival order or on when (and how often) a buffer was sorted.
bool DetectionBefore(const RawDetection& a, const RawDetection& b);

/// InvalidArgument when `detection` has an invalid object or cell id,
/// or ends before it starts while `options` keep zero-duration
/// detections (with drop_zero_duration on, cleaning drops and counts
/// it). Every builder checks its input with this before building.
[[nodiscard]] Status CheckDetection(const RawDetection& detection,
                                    const BuilderOptions& options);

/// Groups detections by moving object, in object-id order; each group
/// is non-empty and keeps input order. InvalidArgument when
/// CheckDetection rejects a detection.
[[nodiscard]] Result<std::vector<std::vector<RawDetection>>> GroupByObject(
    std::vector<RawDetection> detections, const BuilderOptions& options);

/// One moving object's build state between Assembler calls.
struct OpenObject {
  /// The last detection cleaning kept. Later detections are cleaned
  /// against it, across session splits.
  std::optional<RawDetection> last_kept;
  /// The trace being assembled (empty between visits).
  Trace trace;
};

/// \brief The build step, once for every builder: TrajectoryBuilder,
/// BatchPipeline and live::IncrementalBuilder all run it.
///
/// Feed each object's detections to Add() in DetectionBefore order. Add
/// cleans a detection against the object's last kept one (zero-duration
/// drop, containment drop, overlap clip, graph filter), then splits the
/// visit at a session gap, merges it into a same-cell presence, or
/// appends it. Flush() closes the open trace. Trajectories are numbered
/// from first_trajectory_id in emission order. report() counts the
/// cleaning, the merges and trajectories_out; records_in and
/// objects_seen belong to the caller that groups the input.
class Assembler {
 public:
  explicit Assembler(BuilderOptions options)
      : options_(std::move(options)), next_id_(options_.first_trajectory_id) {}

  /// Cleans and assembles one detection of `object`; a session split
  /// emits the finished trajectory into `out`.
  [[nodiscard]] Status Add(ObjectId object, OpenObject& state,
                           RawDetection detection,
                           std::vector<SemanticTrajectory>* out);
  /// Validates the open trace, if any, and emits it into `out`.
  [[nodiscard]] Status Flush(ObjectId object, OpenObject& state,
                             std::vector<SemanticTrajectory>* out);
  /// One whole object (a GroupByObject group): sort, Add each, Flush.
  [[nodiscard]] Status BuildObject(std::vector<RawDetection> detections,
                                   std::vector<SemanticTrajectory>* out);

  const BuildReport& report() const { return report_; }
  /// The id the next emitted trajectory gets.
  TrajectoryId next_id() const { return next_id_; }

 private:
  BuilderOptions options_;
  BuildReport report_;
  TrajectoryId next_id_;
};

/// \brief Assembles semantic trajectories from raw symbolic detections.
///
/// Groups by moving object, sorts each object's detections, and runs
/// them through the Assembler: one SemanticTrajectory per visit, with
/// sequential ids.
class TrajectoryBuilder {
 public:
  explicit TrajectoryBuilder(BuilderOptions options = {})
      : options_(std::move(options)) {}

  /// Builds all trajectories from the detection set. The input need not
  /// be sorted. Returns trajectories ordered by (object, start time).
  [[nodiscard]] Result<std::vector<SemanticTrajectory>> Build(
      std::vector<RawDetection> detections);

  /// The counters of the last Build() call.
  const BuildReport& report() const { return report_; }

 private:
  BuilderOptions options_;
  BuildReport report_;
};

}  // namespace sitm::core
