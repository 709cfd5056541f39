#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/episode.h"
#include "core/trajectory.h"
#include "mining/similarity.h"
#include "query/planner.h"
#include "base/task_runner.h"
#include "query/predicate.h"
#include "storage/event_store.h"
#include "storage/store_set.h"

namespace sitm::query {

/// \brief The query executor: filters trajectories and projects the
/// matches as trajectories, tuples, ids, a count, episodes or top-k, out
/// of an in-memory batch, an on-disk EventStore, or a StoreSet of
/// segments plus a tail, fanning the work across a TaskRunner (a
/// sched::Executor at every entry point).
///
/// One execution loop serves every source. Each Run overload only lists
/// its work units: chunks of borrowed in-memory trajectories (`chunk`
/// per unit) and candidate store blocks (those PlanBlocks keeps). Every
/// unit evaluates its trajectories into its own fragment, and fragments
/// merge in unit order.
///
/// Determinism contract: for the same query over the same data, the
/// result — order included — is byte-identical for every worker count,
/// and in-memory execution agrees with store-backed execution over a
/// store holding the same trajectories. Units are a function of the
/// input and the plan, never of the schedule.

/// How matching episodes are defined for episode predicates and the
/// kEpisodes projection: maximal runs where `condition` holds on every
/// tuple, labeled and annotated (core::ForEachMaximalRun, the rule of
/// core::ExtractMaximalEpisodes). The condition is a closed value that
/// reads a tuple's stay duration, cell and stay annotations, so store
/// blocks extract episodes from their decoded columns.
struct EpisodeSpec {
  std::string label;
  core::TupleCondition condition;
  core::AnnotationSet annotations;
};

/// What the query returns. Every bound predicate and episode condition
/// is decidable on a block's decoded columns, so store blocks evaluate
/// every kept trajectory on its TrajectoryView and build only what a
/// match emits: the whole trajectory for kTrajectories, each emitted
/// tuple for kTuples. kIds, kCount, kTopK and kEpisodes read nothing of
/// a match but its id, its existence, its cells or its episodes' row
/// ranges and intervals, and build nothing, whatever the predicate.
enum class Projection : int {
  kTrajectories = 0,  ///< full matching trajectories
  kTuples,            ///< matching tuples of matching trajectories
  kIds,               ///< matching trajectory ids only
  kCount,             ///< just how many trajectories match
  kEpisodes,          ///< extracted episodes of matching trajectories
  kTopK,              ///< k most similar matches to a probe trajectory
};

/// kTopK parameters. Similarity is mining::EditSimilarity over the
/// trajectories' cell sequences; ties break by ascending trajectory id
/// so results stay deterministic.
///
/// Each work unit keeps its k best so far. Once it has k, the k-th
/// similarity s_k becomes a running cutoff: a later candidate's edit
/// distance runs through the banded mining::EditDistanceBounded with
/// cutoff (1 - s_k) * max(|a|, |b|) (rounding only loosens it), which
/// gives up only on candidates scoring strictly below s_k. Candidates
/// within it get their exact similarity and displace the k-th only if
/// they rank strictly before it, so ties still go to the lower id and
/// the answer equals scoring every match in full.
struct TopKSpec {
  std::size_t k = 10;
  /// The probe trajectory (borrowed; must outlive the Run call).
  const core::SemanticTrajectory* probe = nullptr;
  /// Substitution cost; null = UnitCellCost.
  mining::CellCost cost;
};

/// Episode filter for the kEpisodes projection (label "" = any; the
/// optional Allen constraint tests the episode's interval).
struct EpisodeFilter {
  std::string label;
  std::optional<AllenConstraint> allen;
};

/// A complete query: the trajectory-level predicate, episode
/// extraction, and the projection.
struct Query {
  /// Trajectory-level filter (bound by the executor against its
  /// context; symbolic leaves welcome).
  Predicate where;
  /// Episodes to extract per matching-candidate trajectory; consulted
  /// by episode predicates and the kEpisodes projection.
  std::vector<EpisodeSpec> episodes;
  Projection projection = Projection::kTrajectories;
  /// kTuples only: which tuples of a matching trajectory to emit
  /// (evaluated tuple-level; defaults to all).
  Predicate tuple_where;
  /// kEpisodes only.
  EpisodeFilter episode_filter;
  /// kTopK only.
  TopKSpec top_k;
};

/// One emitted tuple (kTuples).
struct TupleRow {
  TrajectoryId trajectory;
  ObjectId object;
  std::size_t index = 0;  ///< tuple position in the parent's trace
  core::PresenceInterval tuple;
};

/// One emitted episode (kEpisodes).
struct EpisodeRow {
  TrajectoryId trajectory;
  ObjectId object;
  core::Episode episode;
  qsr::TimeInterval interval;  ///< the episode's interval in its parent
};

/// One kTopK hit.
struct ScoredTrajectory {
  TrajectoryId trajectory;
  double similarity = 0;
};

/// Work accounting of one Run, the observable face of predicate
/// pushdown (rows_scanned / rows_total is the pruning ratio the
/// benches report). One formula holds for every source:
/// `blocks_scanned` is the number of block units and `rows_scanned` the
/// rows of all units, so an in-memory run scans every row and no block.
/// trajectories_considered counts every chunk trajectory but only the
/// pushdown survivors of decoded blocks. A StoreSet therefore reports
/// the sums of single-store runs over its segments plus its tail's rows
/// and trajectories. A plan that can never match scans nothing.
/// trajectories_built counts the trajectories block units built
/// (chunks borrow theirs and build none): the block-unit matches for
/// kTrajectories, and 0 for every other projection — kTuples builds
/// only the tuples it emits.
struct ExecutionStats {
  std::uint64_t blocks_total = 0;    ///< store blocks in the file / set
  std::uint64_t blocks_scanned = 0;  ///< blocks actually decoded
  std::uint64_t rows_total = 0;      ///< tuple rows in the file / batch / set
  std::uint64_t rows_scanned = 0;    ///< rows in decoded blocks and chunks
  std::uint64_t trajectories_considered = 0;  ///< ran the residual filter
  std::uint64_t trajectories_matched = 0;
  std::uint64_t trajectories_built = 0;  ///< built from block columns

  std::string ToString() const;
};

/// The result of one Run: exactly one payload vector is populated,
/// per the query's projection.
struct QueryResult {
  Projection projection = Projection::kTrajectories;
  std::vector<core::SemanticTrajectory> trajectories;
  std::vector<TupleRow> tuples;
  std::vector<TrajectoryId> ids;
  std::vector<EpisodeRow> episodes;
  std::vector<ScoredTrajectory> top_k;
  std::uint64_t count = 0;
  ExecutionStats stats;

  /// Canonical rendering of the payload (stats excluded): two runs
  /// returning the same matches in the same order — the determinism
  /// contract — produce identical strings.
  std::string Fingerprint() const;
};

class QueryResultCache;

/// Executor knobs.
struct ExecutorOptions {
  /// Runner to fan out on (borrowed; null = run on the calling
  /// thread; entry points pass a sched::Executor).
  TaskRunner* executor = nullptr;
  /// Trajectories per in-memory work chunk. Chunk boundaries are a
  /// function of this and the input size only — never the worker
  /// count — so results and stats are reproducible across worker
  /// counts.
  std::size_t chunk = 64;
  /// Result cache for store-backed runs (borrowed; null = no caching).
  /// Sound because finished stores are immutable and the key pins the
  /// file contents and the bound query — see query/result_cache.h.
  /// Queries with episode specs and kTopK run cold: their entries would
  /// evict cheaper point and window results (QueryResultCache::Cacheable).
  QueryResultCache* cache = nullptr;
};

/// \brief Runs queries against a fixed QueryContext.
class QueryExecutor {
 public:
  explicit QueryExecutor(QueryContext context, ExecutorOptions options = {})
      : context_(std::move(context)), options_(options) {}

  /// In-memory execution over a trajectory batch: the units are chunks
  /// of `trajectories`, borrowed and copied only into a kTrajectories
  /// result.
  [[nodiscard]] Result<QueryResult> Run(
      const Query& query,
      const std::vector<core::SemanticTrajectory>& trajectories) const;

  /// Store-backed execution (kTrajectories stores only): the units are
  /// the blocks PlanBlocks keeps; each decodes with the pushdown as its
  /// row filter and applies the residual to the survivors' views. The only
  /// overload that consults the result cache, because a finished store
  /// is one immutable file to key on.
  [[nodiscard]] Result<QueryResult> Run(const Query& query,
                          const storage::EventStoreReader& reader) const;

  /// Store-set execution over live + compacted segments (the rolling
  /// SegmentStore snapshot). The units are each segment's planned
  /// blocks, then chunks of the in-memory tail. A matching trajectory
  /// emits StoreSet::CanonicalId of its (object, start) key at its
  /// ordinal (a block's ordinal base plus the visited view's position,
  /// or its tail position), so segment blocks answer from the columns
  /// too; kCount computes no id. The merged rows are then stable-sorted
  /// by trajectory id, the batch pipeline's (object, start) order, so
  /// the result (order included) is byte-identical to an in-memory run
  /// over a batch build of the same detections. The query is bound and
  /// planned once. The result cache is NOT consulted: a segment set
  /// changes under ingest, so there is no single immutable file to key
  /// on.
  [[nodiscard]] Result<QueryResult> Run(const Query& query,
                          const storage::StoreSet& set) const;

  const QueryContext& context() const { return context_; }

 private:
  QueryContext context_;
  ExecutorOptions options_;
};

}  // namespace sitm::query

