#pragma once

#include <cstddef>
#include <vector>

#include "base/result.h"
#include "base/task_runner.h"
#include "core/builder.h"
#include "core/enrichment.h"
#include "core/inference.h"
#include "core/trajectory.h"
#include "indoor/nrg.h"

namespace sitm::core {

/// \brief The build and per-trajectory stage settings that the batch
/// pipeline and the live builder share, with the one implementation of
/// their config checks and stage order.
struct StageOptions {
  /// Cleaning and trace-assembly options (see Assembler).
  BuilderOptions builder;

  /// Enrichment rules applied to every built trajectory; empty = skip
  /// the enrichment stage. The rules resolve cell metadata through
  /// `builder.graph`, which they require.
  std::vector<EnrichmentRule> rules;

  /// When true, runs topology-based hidden-passage inference on every
  /// trajectory after enrichment (Fig. 6 completion), over the
  /// accessibility graph `builder.graph`, which it requires.
  bool infer_hidden_passages = false;
  InferenceOptions inference;

  /// InvalidArgument on empty builder.default_annotations, or on an
  /// enabled stage without `builder.graph`.
  [[nodiscard]] Status Validate() const;

  /// Runs the enabled stages on one built trajectory: enrichment, then
  /// inference, adding their counters to the reports. Both read only
  /// this trajectory's trace, never its id, so they may run before or
  /// after ids are final.
  [[nodiscard]] Status Apply(SemanticTrajectory* trajectory,
                             EnrichmentReport* enrichment_report,
                             InferenceReport* inference_report) const;
};

/// Options for the batched build -> enrich -> infer pipeline. The
/// builder's `first_trajectory_id` is honored globally: output ids are
/// sequential from it in (object, start time) order, exactly as the
/// sequential TrajectoryBuilder would assign them.
struct PipelineOptions : StageOptions {
  /// Runner to execute the shard tasks on (borrowed; not owned).
  /// Entry points pass a sched::Executor; core itself holds only the
  /// base interface — the layering manifest keeps core below sched.
  /// Null runs every stage on the calling thread — the sequential
  /// reference path.
  TaskRunner* executor = nullptr;

  /// Moving objects per build shard (>= 1; smaller shards balance
  /// better, larger ones amortize per-shard setup).
  std::size_t objects_per_shard = 32;
};

/// Merged counters of one Run() call: per-shard BuildReports and
/// per-trajectory Enrichment/InferenceReports summed field by field.
struct PipelineReport {
  BuildReport build;
  EnrichmentReport enrichment;
  InferenceReport inference;
  /// Build shards the detections were split into.
  std::size_t shards = 0;
};

/// \brief Batched, parallel build -> enrich -> infer over raw detections.
///
/// The Louvre study's workload shape (§4): millions of zone detections
/// turned into semantic trajectories before any mining can start. Raw
/// detections are grouped by moving object and objects are sharded;
/// each shard is one task that builds the shard and then enriches and
/// infers it, so a shard that finishes building is enriched while later
/// shards are still building — no global stage barrier. The merged
/// trajectories are renumbered to the exact ids the sequential builder
/// would have assigned.
///
/// Determinism: for the same input and options, the output — ids,
/// traces, annotations, and the merged report — is byte-identical to
/// the sequential path (executor == nullptr) for every worker count.
/// Shard results are merged in object order and reports are summed in
/// index order, never in completion order; enrichment and inference
/// never read trajectory ids, so enriching before the renumber pass is
/// equivalent to the old renumber-then-enrich order.
class BatchPipeline {
 public:
  explicit BatchPipeline(PipelineOptions options)
      : options_(std::move(options)) {}

  /// Runs the full pipeline over the detection set (need not be sorted).
  /// Returns trajectories ordered by (object, start time). On error the
  /// first failing stage in deterministic (shard, then trajectory) order
  /// is reported.
  [[nodiscard]] Result<std::vector<SemanticTrajectory>> Run(
      std::vector<RawDetection> detections);

  /// Merged counters of the last Run() call.
  const PipelineReport& report() const { return report_; }

 private:
  PipelineOptions options_;
  PipelineReport report_;
};

}  // namespace sitm::core

