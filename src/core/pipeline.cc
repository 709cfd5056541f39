#include "core/pipeline.h"

#include <algorithm>
#include <utility>

namespace sitm::core {
namespace {

/// What one shard's build produced, then what its enrich+infer step
/// added. Default state is an empty OK outcome so the slot vector can be
/// preallocated.
struct ShardOutcome {
  Status status;
  std::vector<SemanticTrajectory> trajectories;
  BuildReport report;
  /// The shard's first enrich or infer failure, in trajectory order.
  Status stage_status;
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

void MergeEnrichmentReports(EnrichmentReport* into,
                            const EnrichmentReport& from) {
  into->tuples_touched += from.tuples_touched;
  into->annotations_added += from.annotations_added;
}

void MergeInferenceReports(InferenceReport* into, const InferenceReport& from) {
  into->inserted += from.inserted;
  into->already_consistent += from.already_consistent;
  into->ambiguous += from.ambiguous;
  into->disconnected += from.disconnected;
}

}  // namespace

Status StageOptions::Validate() const {
  SITM_RETURN_IF_ERROR(builder.Validate());
  if (!rules.empty() && builder.graph == nullptr) {
    return Status::InvalidArgument("enrichment rules need builder.graph");
  }
  if (infer_hidden_passages && builder.graph == nullptr) {
    return Status::InvalidArgument("infer_hidden_passages needs builder.graph");
  }
  return Status::OK();
}

Status StageOptions::Apply(SemanticTrajectory* trajectory,
                           EnrichmentReport* enrichment_report,
                           InferenceReport* inference_report) const {
  if (!rules.empty()) {
    Result<EnrichmentReport> enriched =
        EnrichTrajectory(trajectory, *builder.graph, rules);
    if (!enriched.ok()) return enriched.status();
    MergeEnrichmentReports(enrichment_report, *enriched);
  }
  if (infer_hidden_passages) {
    Result<std::pair<SemanticTrajectory, InferenceReport>> inferred =
        InferHiddenPassages(*trajectory, *builder.graph, inference);
    if (!inferred.ok()) return inferred.status();
    *trajectory = std::move(inferred->first);
    MergeInferenceReports(inference_report, inferred->second);
  }
  return Status::OK();
}

Result<std::vector<SemanticTrajectory>> BatchPipeline::Run(
    std::vector<RawDetection> detections) {
  report_ = PipelineReport{};
  // Checked even for an empty detection set, like TrajectoryBuilder.
  SITM_RETURN_IF_ERROR(options_.Validate());

  // --- Stage 1: group by object, in object order, so shard merging
  // preserves the sequential builder's (object, start time) order.
  report_.build.records_in = detections.size();
  Result<std::vector<std::vector<RawDetection>>> grouped =
      GroupByObject(std::move(detections), options_.builder);
  if (!grouped.ok()) return grouped.status();
  std::vector<std::vector<RawDetection>> groups = std::move(grouped).value();
  report_.build.objects_seen = groups.size();

  // --- Stages 2+3, one task per shard: the task builds its shard and
  // then enriches+infers it, so enrichment of an early shard overlaps
  // the builds of later shards instead of waiting behind a global
  // barrier.
  const std::size_t per_shard = std::max<std::size_t>(
      static_cast<std::size_t>(1), options_.objects_per_shard);
  const std::size_t num_shards = (groups.size() + per_shard - 1) / per_shard;
  report_.shards = num_shards;

  // Thread-safety: tasks share the graphs read-only and write only their
  // own shard's slots — groups[g] for the shard's objects g, and the
  // returned shard outcome. No locks — TSan (ctest -L parallel) enforces
  // this stays true.
  std::vector<ShardOutcome> shards = ParallelMap<ShardOutcome>(
      options_.executor, num_shards,
      [this, &groups, per_shard](std::size_t s) {
        const std::size_t begin = s * per_shard;
        const std::size_t end = std::min(groups.size(), begin + per_shard);
        // Shard-local ids; the merge below renumbers them.
        Assembler assembler(options_.builder);
        ShardOutcome shard;
        for (std::size_t g = begin; g < end; ++g) {
          // By value: each group is freed as soon as it is assembled.
          shard.status = assembler.BuildObject(std::move(groups[g]),
                                               &shard.trajectories);
          if (!shard.status.ok()) break;
        }
        shard.report = assembler.report();
        // A failed build leaves nothing meaningful to enrich; the merge
        // reports the build failure first anyway.
        if (!shard.status.ok()) return shard;
        for (SemanticTrajectory& trajectory : shard.trajectories) {
          shard.stage_status = options_.Apply(&trajectory, &shard.enrichment,
                                              &shard.inference);
          if (!shard.stage_status.ok()) break;
        }
        return shard;
      },
      /*grain=*/1, "pipeline/shard");

  // --- Merge: statuses and reports in deterministic (shard, then
  // trajectory) order, then renumber to the sequential builder's ids.
  for (const ShardOutcome& shard : shards) {
    if (!shard.status.ok()) return shard.status;
  }
  for (const ShardOutcome& shard : shards) {
    if (!shard.stage_status.ok()) return shard.stage_status;
  }

  std::size_t total = 0;
  for (const ShardOutcome& shard : shards) {
    total += shard.trajectories.size();
  }
  std::vector<SemanticTrajectory> out;
  out.reserve(total);
  TrajectoryId next_id = options_.builder.first_trajectory_id;
  for (ShardOutcome& shard : shards) {
    MergeBuildReports(&report_.build, shard.report);
    MergeEnrichmentReports(&report_.enrichment, shard.enrichment);
    MergeInferenceReports(&report_.inference, shard.inference);
    for (SemanticTrajectory& t : shard.trajectories) {
      SemanticTrajectory renumbered(next_id, t.object(),
                                    std::move(t.mutable_trace()),
                                    t.annotations());
      next_id = TrajectoryId(next_id.value() + 1);
      out.push_back(std::move(renumbered));
    }
  }
  return out;
}

}  // namespace sitm::core
