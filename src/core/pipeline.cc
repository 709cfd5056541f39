#include "core/pipeline.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/task_graph.h"

namespace sitm::core {
namespace {

/// What one build shard produced. Default state is an empty OK outcome
/// so the slot vector can be preallocated.
struct ShardOutcome {
  Status status;
  std::vector<SemanticTrajectory> trajectories;
  BuildReport report;
};

/// What enrich+infer produced for one trajectory of one shard.
struct StageOutcome {
  Status status;
  EnrichmentReport enrichment;
  InferenceReport inference;
};

void MergeBuildReports(BuildReport* into, const BuildReport& from) {
  into->records_in += from.records_in;
  into->zero_duration_dropped += from.zero_duration_dropped;
  into->overlaps_clipped += from.overlaps_clipped;
  into->contained_dropped += from.contained_dropped;
  into->graph_inconsistent_dropped += from.graph_inconsistent_dropped;
  into->merged_same_cell += from.merged_same_cell;
  into->objects_seen += from.objects_seen;
  into->trajectories_out += from.trajectories_out;
}

}  // namespace

Result<std::vector<SemanticTrajectory>> BatchPipeline::Run(
    std::vector<RawDetection> detections) {
  report_ = PipelineReport{};
  if (options_.builder.default_annotations.empty()) {
    // Parity with TrajectoryBuilder::Build, which rejects this even for
    // an empty detection set (Def. 3.1 requires a non-empty A_traj).
    return Status::InvalidArgument(
        "BatchPipeline: builder.default_annotations must be non-empty "
        "(Def. 3.1 requires a non-empty A_traj)");
  }
  const indoor::Nrg* enrich_graph = options_.enrichment_graph != nullptr
                                        ? options_.enrichment_graph
                                        : options_.builder.graph;
  if (!options_.rules.empty() && enrich_graph == nullptr) {
    return Status::InvalidArgument(
        "BatchPipeline: enrichment rules need enrichment_graph (or "
        "builder.graph)");
  }
  const indoor::Nrg* infer_graph = options_.inference_graph != nullptr
                                       ? options_.inference_graph
                                       : enrich_graph;
  if (options_.infer_hidden_passages && infer_graph == nullptr) {
    return Status::InvalidArgument(
        "BatchPipeline: infer_hidden_passages needs inference_graph (or "
        "enrichment_graph / builder.graph)");
  }

  // --- Stage 1: group by object (ordered, so shard merging preserves
  // the sequential builder's (object, start time) output order).
  report_.build.records_in = detections.size();
  std::map<ObjectId, std::vector<RawDetection>> by_object;
  for (RawDetection& d : detections) {
    if (!d.object.valid() || !d.cell.valid()) {
      return Status::InvalidArgument(
          "BatchPipeline: detection with invalid object or cell id");
    }
    by_object[d.object].push_back(std::move(d));
  }
  detections.clear();
  std::vector<std::vector<RawDetection>> groups;
  groups.reserve(by_object.size());
  for (auto& [object, records] : by_object) {
    groups.push_back(std::move(records));
  }
  by_object.clear();

  // --- Stages 2+3 as one task graph: each shard is a build task chained
  // to an enrich+infer task, so enrichment of an early shard overlaps
  // the builds of later shards instead of waiting behind a global
  // barrier.
  const std::size_t per_shard = std::max<std::size_t>(
      static_cast<std::size_t>(1), options_.objects_per_shard);
  const std::size_t num_shards = (groups.size() + per_shard - 1) / per_shard;
  report_.shards = num_shards;
  const bool enrich = !options_.rules.empty();
  const bool infer = options_.infer_hidden_passages;

  // Thread-safety: tasks share `groups` and the graphs read-only and
  // write only their own shard's slots — shards[s] for build task s,
  // stage_outcomes[s] (sized inside the task) plus the in-place
  // trajectory updates for enrich task s, which the build->enrich edge
  // orders after the build's writes. No locks — TSan (ctest -L
  // parallel) enforces this stays true.
  std::vector<ShardOutcome> shards(num_shards);
  std::vector<std::vector<StageOutcome>> stage_outcomes(num_shards);

  TaskGraph graph;
  std::vector<TaskId> build_tasks(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    build_tasks[s] = graph.AddTask(
        "pipeline/build", [this, &groups, &shards, per_shard, s] {
          const std::size_t begin = s * per_shard;
          const std::size_t end = std::min(groups.size(), begin + per_shard);
          BuilderOptions shard_options = options_.builder;
          shard_options.first_trajectory_id = TrajectoryId(1);
          TrajectoryBuilder builder(std::move(shard_options));
          ShardOutcome outcome;
          // One Build() per already-grouped object: the detections were
          // grouped in stage 1, so re-concatenating them only for the
          // builder to split them apart again would double the grouping
          // work. Group-local trajectory ids are renumbered by the
          // caller.
          for (std::size_t g = begin; g < end; ++g) {
            Result<std::vector<SemanticTrajectory>> built =
                builder.Build(std::move(groups[g]));
            MergeBuildReports(&outcome.report, builder.report());
            if (!built.ok()) {
              outcome.status = built.status();
              break;
            }
            outcome.trajectories.insert(
                outcome.trajectories.end(),
                std::make_move_iterator(built.value().begin()),
                std::make_move_iterator(built.value().end()));
          }
          shards[s] = std::move(outcome);
        });
  }
  if (enrich || infer) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      const TaskId enrich_task = graph.AddTask(
          "pipeline/enrich",
          [this, enrich, infer, enrich_graph, infer_graph, &shards,
           &stage_outcomes, s] {
            ShardOutcome& shard = shards[s];
            // A failed build leaves nothing meaningful to enrich; the
            // caller reports the build failure first anyway.
            if (!shard.status.ok()) return;
            std::vector<StageOutcome>& slots = stage_outcomes[s];
            slots.resize(shard.trajectories.size());
            for (std::size_t i = 0; i < shard.trajectories.size(); ++i) {
              StageOutcome& slot = slots[i];
              SemanticTrajectory& trajectory = shard.trajectories[i];
              if (enrich) {
                Result<EnrichmentReport> enriched = EnrichTrajectory(
                    &trajectory, *enrich_graph, options_.rules);
                if (!enriched.ok()) {
                  slot.status = enriched.status();
                  continue;
                }
                slot.enrichment = *enriched;
              }
              if (infer) {
                Result<std::pair<SemanticTrajectory, InferenceReport>>
                    inferred = InferHiddenPassages(trajectory, *infer_graph,
                                                   options_.inference);
                if (!inferred.ok()) {
                  slot.status = inferred.status();
                  continue;
                }
                // Inference preserves the (shard-local) id, so the
                // renumber pass below sees the same ids either way.
                trajectory = std::move(inferred->first);
                slot.inference = inferred->second;
              }
            }
          });
      SITM_RETURN_IF_ERROR(graph.AddEdge(build_tasks[s], enrich_task));
    }
  }
  SITM_RETURN_IF_ERROR(RunGraph(options_.executor, std::move(graph)));

  // --- Merge: statuses and reports in deterministic (shard, then
  // trajectory) order, then renumber to the sequential builder's ids.
  for (const ShardOutcome& shard : shards) {
    if (!shard.status.ok()) return shard.status;
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (const StageOutcome& slot : stage_outcomes[s]) {
      if (!slot.status.ok()) return slot.status;
    }
  }

  std::vector<SemanticTrajectory> out;
  {
    const std::size_t records_in_total = report_.build.records_in;
    std::size_t total = 0;
    for (const ShardOutcome& shard : shards) {
      total += shard.trajectories.size();
    }
    out.reserve(total);
    TrajectoryId next_id = options_.builder.first_trajectory_id;
    for (ShardOutcome& shard : shards) {
      MergeBuildReports(&report_.build, shard.report);
      for (SemanticTrajectory& t : shard.trajectories) {
        SemanticTrajectory renumbered(next_id, t.object(),
                                      std::move(t.mutable_trace()),
                                      t.annotations());
        next_id = TrajectoryId(next_id.value() + 1);
        out.push_back(std::move(renumbered));
      }
    }
    // Per-shard records_in counters sum to the grouped total; keep the
    // whole-input figure computed before grouping.
    report_.build.records_in = records_in_total;
  }

  for (const std::vector<StageOutcome>& slots : stage_outcomes) {
    for (const StageOutcome& slot : slots) {
      report_.enrichment.tuples_touched += slot.enrichment.tuples_touched;
      report_.enrichment.annotations_added +=
          slot.enrichment.annotations_added;
      report_.inference.inserted += slot.inference.inserted;
      report_.inference.already_consistent +=
          slot.inference.already_consistent;
      report_.inference.ambiguous += slot.inference.ambiguous;
      report_.inference.disconnected += slot.inference.disconnected;
    }
  }
  return out;
}

}  // namespace sitm::core
