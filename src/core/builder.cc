#include "core/builder.h"

#include <algorithm>
#include <map>

namespace sitm::core {
namespace {

// Fills in the transition boundary for a cell change when the graph has
// exactly one accessibility edge between the cells.
BoundaryId InferTransition(const indoor::Nrg* graph, CellId from, CellId to) {
  if (graph == nullptr) return BoundaryId::Invalid();
  BoundaryId found = BoundaryId::Invalid();
  int matches = 0;
  for (const indoor::NrgEdge& e :
       graph->OutEdges(from, indoor::EdgeType::kAccessibility)) {
    if (e.to != to) continue;
    ++matches;
    found = e.boundary;
  }
  return matches == 1 ? found : BoundaryId::Invalid();
}

}  // namespace

Status BuilderOptions::Validate() const {
  if (default_annotations.empty()) {
    return Status::InvalidArgument(
        "builder.default_annotations must be non-empty (Def. 3.1 requires "
        "a non-empty A_traj)");
  }
  if (session_gap < Duration::Seconds(0)) {
    return Status::InvalidArgument("builder.session_gap must not be negative");
  }
  return Status::OK();
}

bool DetectionBefore(const RawDetection& a, const RawDetection& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.cell < b.cell;
}

Status CheckDetection(const RawDetection& detection,
                      const BuilderOptions& options) {
  if (!detection.object.valid() || !detection.cell.valid()) {
    return Status::InvalidArgument("detection with invalid object or cell id");
  }
  if (!options.drop_zero_duration && detection.end < detection.start) {
    return Status::InvalidArgument("detection ends before it starts");
  }
  return Status::OK();
}

Result<std::vector<std::vector<RawDetection>>> GroupByObject(
    std::vector<RawDetection> detections, const BuilderOptions& options) {
  std::map<ObjectId, std::vector<RawDetection>> by_object;
  for (RawDetection& d : detections) {
    SITM_RETURN_IF_ERROR(CheckDetection(d, options));
    by_object[d.object].push_back(std::move(d));
  }
  std::vector<std::vector<RawDetection>> groups;
  groups.reserve(by_object.size());
  for (auto& [object, records] : by_object) {
    groups.push_back(std::move(records));
  }
  return groups;
}

Status Assembler::Add(ObjectId object, OpenObject& state, RawDetection cur,
                      std::vector<SemanticTrajectory>* out) {
  // Cleaning: zero-duration, containment, overlap clipping, graph
  // filtering — all against the last kept detection.
  if (options_.drop_zero_duration && cur.end <= cur.start) {
    ++report_.zero_duration_dropped;
    return Status::OK();
  }
  if (state.last_kept) {
    const RawDetection& prev = *state.last_kept;
    if (cur.end <= prev.end) {
      // Entirely inside the previous detection: redundant.
      ++report_.contained_dropped;
      return Status::OK();
    }
    if (cur.start <= prev.end) {
      // Sensor hand-over overlap: clip the start just past the previous
      // end to keep presence intervals monotone.
      cur.start = prev.end + Duration::Seconds(1);
      ++report_.overlaps_clipped;
      if (cur.start > cur.end) {
        ++report_.zero_duration_dropped;
        return Status::OK();
      }
    }
    if (options_.drop_graph_inconsistent && options_.graph != nullptr &&
        cur.cell != prev.cell) {
      const std::vector<CellId> reach = options_.graph->Reachable(
          prev.cell, indoor::EdgeType::kAccessibility);
      if (std::find(reach.begin(), reach.end(), cur.cell) == reach.end()) {
        ++report_.graph_inconsistent_dropped;
        return Status::OK();
      }
    }
  }
  state.last_kept = cur;

  // Visit splitting + same-cell merging + trace assembly.
  if (!state.trace.empty()) {
    const PresenceInterval& last = state.trace.intervals().back();
    const Duration gap = cur.start - last.end();
    if (gap > options_.session_gap) {
      SITM_RETURN_IF_ERROR(Flush(object, state, out));
    } else if (cur.cell == last.cell && gap <= options_.same_cell_merge_gap) {
      // Extend the ongoing presence in the same cell.
      PresenceInterval merged = last;
      merged.interval = *qsr::TimeInterval::Make(last.start(), cur.end);
      state.trace.mutable_intervals().back() = std::move(merged);
      ++report_.merged_same_cell;
      return Status::OK();
    }
  }
  PresenceInterval p;
  p.cell = cur.cell;
  p.interval = *qsr::TimeInterval::Make(cur.start, cur.end);
  if (!state.trace.empty() &&
      state.trace.intervals().back().cell != cur.cell) {
    p.transition = InferTransition(
        options_.graph, state.trace.intervals().back().cell, cur.cell);
  }
  state.trace.Append(std::move(p));
  return Status::OK();
}

Status Assembler::Flush(ObjectId object, OpenObject& state,
                        std::vector<SemanticTrajectory>* out) {
  if (state.trace.empty()) return Status::OK();
  SemanticTrajectory trajectory(next_id_, object, std::move(state.trace),
                                options_.default_annotations);
  next_id_ = TrajectoryId(next_id_.value() + 1);
  state.trace = Trace();
  SITM_RETURN_IF_ERROR(trajectory.Validate());
  out->push_back(std::move(trajectory));
  ++report_.trajectories_out;
  return Status::OK();
}

Status Assembler::BuildObject(std::vector<RawDetection> detections,
                              std::vector<SemanticTrajectory>* out) {
  if (detections.empty()) return Status::OK();
  const ObjectId object = detections.front().object;
  std::sort(detections.begin(), detections.end(), DetectionBefore);
  OpenObject state;
  for (const RawDetection& d : detections) {
    SITM_RETURN_IF_ERROR(Add(object, state, d, out));
  }
  return Flush(object, state, out);
}

Result<std::vector<SemanticTrajectory>> TrajectoryBuilder::Build(
    std::vector<RawDetection> detections) {
  report_ = BuildReport{};
  report_.records_in = detections.size();
  SITM_RETURN_IF_ERROR(options_.Validate());
  Result<std::vector<std::vector<RawDetection>>> groups =
      GroupByObject(std::move(detections), options_);
  if (!groups.ok()) return groups.status();

  Assembler assembler(options_);
  std::vector<SemanticTrajectory> out;
  for (std::vector<RawDetection>& records : *groups) {
    SITM_RETURN_IF_ERROR(assembler.BuildObject(std::move(records), &out));
  }
  const std::size_t records_in = report_.records_in;
  report_ = assembler.report();
  report_.records_in = records_in;
  report_.objects_seen = groups->size();
  return out;
}

}  // namespace sitm::core
