#include "query/executor.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "mining/patterns.h"
#include "query/result_cache.h"
#include "sched/parallel.h"

namespace sitm::query {

namespace {

/// Everything a worker needs, bound once per Run.
struct BoundQuery {
  Predicate where;
  Predicate tuple_where;
  mining::CellCost cost;              // kTopK
  std::vector<CellId> probe_cells;    // kTopK
  /// Episode extraction is O(trace) per trajectory: do it before the
  /// where-filter only when the filter actually reads episodes, and
  /// after it only when the projection does.
  bool episodes_before_filter = false;
  bool episodes_after_filter = false;
};

/// True iff the predicate tree contains an episode leaf.
bool ReferencesEpisodes(const Predicate& predicate) {
  if (predicate.kind() == PredicateKind::kHasEpisode ||
      predicate.kind() == PredicateKind::kEpisodeAllen) {
    return true;
  }
  for (const Predicate& child : predicate.children()) {
    if (ReferencesEpisodes(child)) return true;
  }
  return false;
}

/// Per-chunk / per-block partial result, merged in input order.
struct Fragment {
  std::vector<core::SemanticTrajectory> trajectories;
  std::vector<TupleRow> tuples;
  std::vector<TrajectoryId> ids;
  std::vector<EpisodeRow> episodes;
  std::vector<ScoredTrajectory> scored;
  std::uint64_t considered = 0;
  std::uint64_t matched = 0;
  Status status;  // store path: decode failures surface in block order
};

/// Deterministic ranking: similarity descending, id ascending.
bool ScoredBefore(const ScoredTrajectory& a, const ScoredTrajectory& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.trajectory < b.trajectory;
}

/// Caps a fragment's kTopK candidates at the query's k. Any global
/// top-k entry is necessarily in its own fragment's top-k, so trimming
/// per fragment never changes the merged answer — it just keeps memory
/// and the final sort bounded by fragments x k instead of the corpus.
void TrimTopK(Fragment& fragment, std::size_t k) {
  if (fragment.scored.size() <= k) return;
  std::partial_sort(fragment.scored.begin(),
                    fragment.scored.begin() + static_cast<std::ptrdiff_t>(k),
                    fragment.scored.end(), ScoredBefore);
  fragment.scored.resize(k);
}

std::vector<core::Episode> ExtractEpisodes(
    const Query& query, const core::SemanticTrajectory& trajectory) {
  std::vector<core::Episode> out;
  for (const EpisodeSpec& spec : query.episodes) {
    std::vector<core::Episode> extracted = core::ExtractMaximalEpisodes(
        trajectory, spec.condition, spec.label, spec.annotations);
    out.insert(out.end(), std::make_move_iterator(extracted.begin()),
               std::make_move_iterator(extracted.end()));
  }
  return out;
}

bool EpisodePassesFilter(const EpisodeFilter& filter,
                         const core::Episode& episode,
                         const qsr::TimeInterval& interval) {
  if (!filter.label.empty() && episode.label != filter.label) return false;
  if (filter.allen.has_value() && !filter.allen->Admits(interval)) {
    return false;
  }
  return true;
}

/// Evaluates one trajectory and appends its contribution to `fragment`.
/// `movable` aliases `trajectory` when the caller owns it (store-path
/// decode buffers), letting the kTrajectories projection move instead
/// of deep-copying; null for borrowed in-memory sources.
void ProcessTrajectory(const Query& query, const BoundQuery& bound,
                       const core::SemanticTrajectory& trajectory,
                       core::SemanticTrajectory* movable,
                       Fragment& fragment) {
  fragment.considered += 1;
  std::vector<core::Episode> episodes;
  const std::vector<core::Episode>* episodes_ptr = nullptr;
  if (bound.episodes_before_filter) {
    episodes = ExtractEpisodes(query, trajectory);
    episodes_ptr = &episodes;
  }
  if (!bound.where.MatchesTrajectory(trajectory, episodes_ptr)) return;
  fragment.matched += 1;
  if (bound.episodes_after_filter && episodes_ptr == nullptr) {
    episodes = ExtractEpisodes(query, trajectory);
    episodes_ptr = &episodes;
  }
  switch (query.projection) {
    case Projection::kTrajectories:
      if (movable != nullptr) {
        fragment.trajectories.push_back(std::move(*movable));
      } else {
        fragment.trajectories.push_back(trajectory);
      }
      return;
    case Projection::kTuples: {
      const core::Trace& trace = trajectory.trace();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (!bound.tuple_where.MatchesTuple(trajectory, i, episodes_ptr)) {
          continue;
        }
        TupleRow row;
        row.trajectory = trajectory.id();
        row.object = trajectory.object();
        row.index = i;
        row.tuple = trace.at(i);
        fragment.tuples.push_back(std::move(row));
      }
      return;
    }
    case Projection::kIds:
      fragment.ids.push_back(trajectory.id());
      return;
    case Projection::kCount:
      return;  // matched counter is the payload
    case Projection::kEpisodes:
      for (const core::Episode& episode : episodes) {
        const auto interval = episode.IntervalIn(trajectory);
        if (!interval.ok()) continue;  // defensive; extraction yields valid
        if (!EpisodePassesFilter(query.episode_filter, episode, *interval)) {
          continue;
        }
        EpisodeRow row;
        row.trajectory = trajectory.id();
        row.object = trajectory.object();
        row.episode = episode;
        row.interval = *interval;
        fragment.episodes.push_back(std::move(row));
      }
      return;
    case Projection::kTopK: {
      ScoredTrajectory scored;
      scored.trajectory = trajectory.id();
      scored.similarity = mining::EditSimilarity(
          bound.probe_cells, mining::CellSequenceOf(trajectory), bound.cost);
      fragment.scored.push_back(scored);
      return;
    }
  }
}

/// Merges fragments in index order into the final result.
QueryResult MergeFragments(const Query& query,
                           std::vector<Fragment> fragments) {
  QueryResult result;
  result.projection = query.projection;
  for (Fragment& fragment : fragments) {
    result.stats.trajectories_considered += fragment.considered;
    result.stats.trajectories_matched += fragment.matched;
    std::move(fragment.trajectories.begin(), fragment.trajectories.end(),
              std::back_inserter(result.trajectories));
    std::move(fragment.tuples.begin(), fragment.tuples.end(),
              std::back_inserter(result.tuples));
    std::move(fragment.ids.begin(), fragment.ids.end(),
              std::back_inserter(result.ids));
    std::move(fragment.episodes.begin(), fragment.episodes.end(),
              std::back_inserter(result.episodes));
    std::move(fragment.scored.begin(), fragment.scored.end(),
              std::back_inserter(result.top_k));
  }
  result.count = result.stats.trajectories_matched;
  if (query.projection == Projection::kTopK) {
    // Fragments arrive pre-trimmed to k candidates each; this final
    // sort ranks at most fragments x k entries.
    std::sort(result.top_k.begin(), result.top_k.end(), ScoredBefore);
    if (result.top_k.size() > query.top_k.k) {
      result.top_k.resize(query.top_k.k);
    }
  }
  return result;
}

Result<BoundQuery> BindQuery(const Query& query, const QueryContext& context) {
  BoundQuery bound;
  SITM_ASSIGN_OR_RETURN(bound.where, query.where.Bind(context));
  SITM_ASSIGN_OR_RETURN(bound.tuple_where, query.tuple_where.Bind(context));
  if (query.projection == Projection::kTopK) {
    if (query.top_k.probe == nullptr) {
      return Status::InvalidArgument(
          "query: kTopK projection needs a probe trajectory");
    }
    bound.cost = query.top_k.cost ? query.top_k.cost : mining::UnitCellCost();
    bound.probe_cells = mining::CellSequenceOf(*query.top_k.probe);
  }
  if (!query.episodes.empty()) {
    bound.episodes_before_filter = ReferencesEpisodes(bound.where);
    bound.episodes_after_filter =
        query.projection == Projection::kEpisodes ||
        (query.projection == Projection::kTuples &&
         ReferencesEpisodes(bound.tuple_where));
  }
  return bound;
}

}  // namespace

std::string ExecutionStats::ToString() const {
  std::ostringstream out;
  out << "blocks " << blocks_scanned << "/" << blocks_total << ", rows "
      << rows_scanned << "/" << rows_total << ", trajectories "
      << trajectories_matched << "/" << trajectories_considered
      << " matched/considered";
  return out.str();
}

std::string QueryResult::Fingerprint() const {
  std::ostringstream out;
  out << "projection=" << static_cast<int>(projection) << " count=" << count
      << "\n";
  for (const core::SemanticTrajectory& t : trajectories) {
    out << t.ToString() << "\n";
  }
  for (const TupleRow& row : tuples) {
    out << row.trajectory << " " << row.object << " [" << row.index << "] "
        << row.tuple.ToString() << "\n";
  }
  for (const TrajectoryId id : ids) {
    out << id << "\n";
  }
  for (const EpisodeRow& row : episodes) {
    out << row.trajectory << " " << row.object << " '" << row.episode.label
        << "' [" << row.episode.begin << ", " << row.episode.end << ") "
        << row.episode.annotations.ToString() << " @["
        << row.interval.start().ToString() << ", "
        << row.interval.end().ToString() << "]\n";
  }
  for (const ScoredTrajectory& scored : top_k) {
    out << scored.trajectory << " " << std::setprecision(12)
        << scored.similarity << "\n";
  }
  return out.str();
}

Result<QueryResult> QueryExecutor::Run(
    const Query& query,
    const std::vector<core::SemanticTrajectory>& trajectories) const {
  SITM_ASSIGN_OR_RETURN(const BoundQuery bound, BindQuery(query, context_));
  const QueryPlan plan = Plan(bound.where);

  QueryResult result;
  std::uint64_t rows_total = 0;
  for (const core::SemanticTrajectory& t : trajectories) {
    rows_total += t.trace().size();
  }
  if (plan.pushdown.never_matches) {
    result.projection = query.projection;
    result.stats.rows_total = rows_total;
    return result;
  }

  const std::size_t chunk = options_.chunk == 0 ? 64 : options_.chunk;
  const std::size_t num_chunks = (trajectories.size() + chunk - 1) / chunk;
  // Thread-safety: chunks read the borrowed trajectories vector and
  // accumulate matches into their own Fragment slot; fragments are
  // concatenated in index order below, keeping result order (and
  // stats) independent of the schedule.
  std::vector<Fragment> fragments = sched::ParallelMap<Fragment>(
      options_.executor, num_chunks, [&](std::size_t c) {
        Fragment fragment;
        const std::size_t begin = c * chunk;
        const std::size_t end =
            std::min(begin + chunk, trajectories.size());
        for (std::size_t i = begin; i < end; ++i) {
          // In-memory source is borrowed: never moved from.
          ProcessTrajectory(query, bound, trajectories[i],
                            /*movable=*/nullptr, fragment);
        }
        if (query.projection == Projection::kTopK) {
          TrimTopK(fragment, query.top_k.k);
        }
        return fragment;
      },
      /*grain=*/0, "query/chunk");

  result = MergeFragments(query, std::move(fragments));
  result.stats.rows_total = rows_total;
  result.stats.rows_scanned = rows_total;
  return result;
}

Result<QueryResult> QueryExecutor::Run(
    const Query& query, const storage::EventStoreReader& reader) const {
  if (reader.kind() != storage::StoreKind::kTrajectories) {
    return Status::FailedPrecondition(
        "query: store-backed execution needs a trajectory store "
        "(detection stores go through RunPipelineFromStore first)");
  }
  SITM_ASSIGN_OR_RETURN(const BoundQuery bound, BindQuery(query, context_));
  const QueryPlan plan = Plan(bound.where);

  // Cache consult: keyed on the *bound* predicates (symbolic leaves
  // resolved) and the immutable file, so a hit is exactly the answer a
  // cold run would produce. Uncacheable queries skip both ends.
  std::string cache_key;
  const bool cacheable =
      options_.cache != nullptr && QueryResultCache::Cacheable(query);
  if (cacheable) {
    cache_key = QueryResultCache::Key(query, bound.where, bound.tuple_where,
                                      reader);
    std::optional<QueryResult> hit = options_.cache->Lookup(cache_key);
    if (hit.has_value()) return *std::move(hit);
  }

  QueryResult result;
  result.projection = query.projection;
  result.stats.blocks_total = reader.num_blocks();
  result.stats.rows_total = reader.rows();
  if (plan.pushdown.never_matches) {
    if (cacheable) options_.cache->Insert(cache_key, result);
    return result;
  }

  const std::vector<std::size_t> blocks = PlanBlocks(reader, plan.pushdown);
  const storage::ScanOptions scan = ToScanOptions(plan.pushdown);

  // Thread-safety: EventStoreReader::ReadTrajectoryBlock is const
  // (mmap-backed, no shared mutable state), so concurrent block
  // reads need no lock; per-block results land in Fragment slots.
  std::vector<Fragment> fragments = sched::ParallelMap<Fragment>(
      options_.executor, blocks.size(), [&](std::size_t b) {
        Fragment fragment;
        std::vector<core::SemanticTrajectory> decoded;
        fragment.status =
            reader.ReadTrajectoryBlock(blocks[b], scan, decoded);
        if (!fragment.status.ok()) return fragment;
        for (core::SemanticTrajectory& t : decoded) {
          ProcessTrajectory(query, bound, t, /*movable=*/&t, fragment);
        }
        if (query.projection == Projection::kTopK) {
          TrimTopK(fragment, query.top_k.k);
        }
        return fragment;
      },
      /*grain=*/0, "query/block");

  for (const Fragment& fragment : fragments) {
    SITM_RETURN_IF_ERROR(fragment.status);
  }
  result = MergeFragments(query, std::move(fragments));
  result.projection = query.projection;
  result.stats.blocks_total = reader.num_blocks();
  result.stats.blocks_scanned = blocks.size();
  result.stats.rows_total = reader.rows();
  for (std::size_t b : blocks) {
    result.stats.rows_scanned += reader.block(b).rows;
  }
  if (cacheable) options_.cache->Insert(cache_key, result);
  return result;
}

Result<QueryResult> QueryExecutor::Run(const Query& query,
                                       const storage::StoreSet& set) const {
  SITM_RETURN_IF_ERROR(set.Validate());
  SITM_ASSIGN_OR_RETURN(const BoundQuery bound, BindQuery(query, context_));
  const QueryPlan plan = Plan(bound.where);

  QueryResult result;
  result.projection = query.projection;
  result.stats.blocks_total = set.TotalBlocks();
  result.stats.rows_total = set.TotalRows();
  if (plan.pushdown.never_matches) return result;

  // Candidate (segment, block) pairs in segment order then block order —
  // a fixed decomposition of the set, so the merge below is independent
  // of the schedule.
  struct BlockRef {
    const storage::StoreSetSegment* segment = nullptr;
    std::size_t block = 0;
    std::uint64_t ordinal_base = 0;  ///< trajectory ordinal of position 0
  };
  std::vector<BlockRef> candidates;
  std::uint64_t rows_scanned = 0;
  for (const storage::StoreSetSegment& segment : set.segments) {
    const std::vector<std::uint64_t> starts =
        storage::BlockTrajectoryStarts(*segment.reader);
    for (const std::size_t b : PlanBlocks(*segment.reader, plan.pushdown)) {
      candidates.push_back(BlockRef{&segment, b, starts[b]});
      rows_scanned += segment.reader->block(b).rows;
    }
  }
  const storage::ScanOptions scan = ToScanOptions(plan.pushdown);

  struct DecodedBlock {
    Status status;
    std::vector<core::SemanticTrajectory> trajectories;
  };
  // Thread-safety: concurrent const reads of mmap-backed readers, one
  // output slot per block (same argument as the single-store path).
  std::vector<DecodedBlock> decoded = sched::ParallelMap<DecodedBlock>(
      options_.executor, candidates.size(), [&](std::size_t i) {
        const BlockRef& ref = candidates[i];
        DecodedBlock out;
        // The pushdown filters the decode; each kept trajectory's block
        // position + ordinal_base indexes canonical_ids exactly.
        std::vector<std::size_t> positions;
        out.status = ref.segment->reader->ReadTrajectoryBlock(
            ref.block, scan, out.trajectories, &positions);
        if (!out.status.ok()) return out;
        for (std::size_t t = 0; t < out.trajectories.size(); ++t) {
          core::SemanticTrajectory& stored = out.trajectories[t];
          const TrajectoryId canonical =
              ref.segment->canonical_ids[ref.ordinal_base + positions[t]];
          stored = core::SemanticTrajectory(
              canonical, stored.object(), std::move(stored.mutable_trace()),
              stored.annotations());
        }
        return out;
      },
      /*grain=*/0, "query/segment-block");

  std::vector<core::SemanticTrajectory> all;
  for (DecodedBlock& block : decoded) {
    SITM_RETURN_IF_ERROR(block.status);
    std::move(block.trajectories.begin(), block.trajectories.end(),
              std::back_inserter(all));
  }
  std::uint64_t extra_rows = 0;
  for (const core::SemanticTrajectory& t : set.extra) {
    extra_rows += t.trace().size();
    all.push_back(t);
  }
  // Canonical ids rank by (object, start) over the whole set — the batch
  // pipeline's output order — so after this sort the in-memory path sees
  // exactly the vector a batch build would have produced, restricted to
  // pushdown survivors and the tail (a superset of every match).
  std::sort(all.begin(), all.end(),
            [](const core::SemanticTrajectory& a,
               const core::SemanticTrajectory& b) { return a.id() < b.id(); });

  SITM_ASSIGN_OR_RETURN(result, Run(query, all));
  result.stats.blocks_total = set.TotalBlocks();
  result.stats.blocks_scanned = candidates.size();
  result.stats.rows_total = set.TotalRows();
  result.stats.rows_scanned = rows_scanned + extra_rows;
  return result;
}

}  // namespace sitm::query
