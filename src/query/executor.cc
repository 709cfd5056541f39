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

/// Per-unit partial result, merged in unit order.
struct Fragment {
  std::vector<core::SemanticTrajectory> trajectories;
  std::vector<TupleRow> tuples;
  std::vector<TrajectoryId> ids;
  std::vector<EpisodeRow> episodes;
  std::vector<ScoredTrajectory> scored;
  std::uint64_t considered = 0;
  std::uint64_t matched = 0;
  Status status;  // block units: decode failures surface in unit order
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
/// `movable` aliases `trajectory` when the caller owns it (a block
/// unit's decode buffer), letting the kTrajectories projection move
/// instead of deep-copying; null for borrowed chunks. `id_of()` yields
/// the id the rows carry; it runs only for a match that emits rows.
template <typename IdOf>
void ProcessTrajectory(const Query& query, const BoundQuery& bound,
                       const core::SemanticTrajectory& trajectory,
                       core::SemanticTrajectory* movable, const IdOf& id_of,
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
  if (query.projection == Projection::kCount) return;  // matched is the payload
  const TrajectoryId id = id_of();
  if (bound.episodes_after_filter && episodes_ptr == nullptr) {
    episodes = ExtractEpisodes(query, trajectory);
    episodes_ptr = &episodes;
  }
  switch (query.projection) {
    case Projection::kTrajectories: {
      core::SemanticTrajectory out =
          movable != nullptr ? std::move(*movable) : trajectory;
      if (out.id() != id) {
        out = core::SemanticTrajectory(id, out.object(),
                                       std::move(out.mutable_trace()),
                                       out.annotations());
      }
      fragment.trajectories.push_back(std::move(out));
      return;
    }
    case Projection::kTuples: {
      const core::Trace& trace = trajectory.trace();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (!bound.tuple_where.MatchesTuple(trajectory, i, episodes_ptr)) {
          continue;
        }
        TupleRow row;
        row.trajectory = id;
        row.object = trajectory.object();
        row.index = i;
        row.tuple = trace.at(i);
        fragment.tuples.push_back(std::move(row));
      }
      return;
    }
    case Projection::kIds:
      fragment.ids.push_back(id);
      return;
    case Projection::kCount:
      return;
    case Projection::kEpisodes:
      for (const core::Episode& episode : episodes) {
        const auto interval = episode.IntervalIn(trajectory);
        if (!interval.ok()) continue;  // defensive; extraction yields valid
        if (!EpisodePassesFilter(query.episode_filter, episode, *interval)) {
          continue;
        }
        EpisodeRow row;
        row.trajectory = id;
        row.object = trajectory.object();
        row.episode = episode;
        row.interval = *interval;
        fragment.episodes.push_back(std::move(row));
      }
      return;
    case Projection::kTopK: {
      ScoredTrajectory scored;
      scored.trajectory = id;
      scored.similarity = mining::EditSimilarity(
          bound.probe_cells, mining::CellSequenceOf(trajectory), bound.cost);
      fragment.scored.push_back(scored);
      return;
    }
  }
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

/// One fixed piece of a query's input. A chunk unit borrows `size`
/// trajectories starting at `chunk`; a block unit (`reader` set) decodes
/// one candidate block of a trajectory store. Units are a function of
/// the input and the plan only — never of the worker count.
struct WorkUnit {
  const core::SemanticTrajectory* chunk = nullptr;
  std::size_t size = 0;
  const storage::EventStoreReader* reader = nullptr;
  std::size_t block = 0;
  /// StoreSet units: the set whose canonical ids the rows carry, the
  /// unit's source in it, and the ordinal of the unit's first
  /// trajectory there. Null keeps the stored ids.
  const storage::StoreSet* set = nullptr;
  std::size_t source = 0;
  std::uint64_t first_ordinal = 0;
  std::uint64_t rows = 0;  ///< tuple rows the unit scans
};

/// Appends `source` as chunks of `chunk` borrowed trajectories and
/// returns the rows they hold; with a `set`, `source` is the part of
/// its tail from ordinal `first_ordinal` on.
std::uint64_t AddChunks(const std::vector<core::SemanticTrajectory>& source,
                        std::size_t chunk, const storage::StoreSet* set,
                        std::uint64_t first_ordinal,
                        std::vector<WorkUnit>& units) {
  if (chunk == 0) chunk = 64;
  std::uint64_t rows = 0;
  for (std::size_t begin = 0; begin < source.size(); begin += chunk) {
    WorkUnit unit;
    unit.chunk = source.data() + begin;
    unit.size = std::min(chunk, source.size() - begin);
    unit.set = set;
    unit.source = set != nullptr ? set->segments.size() : 0;
    unit.first_ordinal = first_ordinal + begin;
    for (std::size_t i = 0; i < unit.size; ++i) {
      unit.rows += unit.chunk[i].trace().size();
    }
    rows += unit.rows;
    units.push_back(unit);
  }
  return rows;
}

/// Appends the blocks of `reader` the pushdown cannot rule out; with a
/// `set`, the reader is its segment `source`.
void AddBlocks(const storage::EventStoreReader& reader,
               const PushdownSummary& pushdown, const storage::StoreSet* set,
               std::size_t source, std::vector<WorkUnit>& units) {
  // The trajectory decoded at position i of block b has ordinal
  // starts[b] + i.
  std::vector<std::uint64_t> starts(reader.num_blocks() + 1, 0);
  for (std::size_t b = 0; set != nullptr && b < reader.num_blocks(); ++b) {
    starts[b + 1] = starts[b] + reader.block(b).trajectories;
  }
  for (const std::size_t b : PlanBlocks(reader, pushdown)) {
    WorkUnit unit;
    unit.reader = &reader;
    unit.block = b;
    unit.rows = reader.block(b).rows;
    unit.set = set;
    unit.source = source;
    unit.first_ordinal = set != nullptr ? starts[b] : 0;
    units.push_back(unit);
  }
}

/// The one execution loop: runs every unit into its own Fragment on
/// `runner`, then merges the fragments in unit order — the first decode
/// failure in unit order wins. Every block unit counts as a scanned
/// block and every unit's rows as scanned rows; the caller fills in the
/// totals of its source.
Result<QueryResult> Execute(const Query& query, const BoundQuery& bound,
                            const QueryPlan& plan, std::vector<WorkUnit> units,
                            TaskRunner* runner) {
  if (plan.pushdown.never_matches) units.clear();  // nothing to scan
  const storage::ScanOptions scan = ToScanOptions(plan.pushdown);
  // Thread-safety: chunk units read borrowed trajectories; block units
  // call the const, mmap-backed EventStoreReader::ReadTrajectoryBlock,
  // which has no shared mutable state; StoreSet units also read the
  // set's immutable ranks. Each unit writes only its own
  // Fragment slot, and slots merge in unit order, so the result (order
  // and stats included) is independent of the schedule.
  std::vector<Fragment> fragments = sched::ParallelMap<Fragment>(
      runner, units.size(),
      [&](std::size_t u) {
        const WorkUnit& unit = units[u];
        Fragment fragment;
        // The trajectory at `position` emits its stored id or, in a
        // StoreSet, its canonical one.
        const auto process = [&](const core::SemanticTrajectory& t,
                                 core::SemanticTrajectory* movable,
                                 std::uint64_t position) {
          const auto id_of = [&] {
            return unit.set == nullptr ? t.id()
                                       : unit.set->CanonicalId(
                                             unit.source,
                                             unit.first_ordinal + position, t);
          };
          ProcessTrajectory(query, bound, t, movable, id_of, fragment);
        };
        if (unit.reader == nullptr) {
          for (std::size_t i = 0; i < unit.size; ++i) {
            process(unit.chunk[i], /*movable=*/nullptr, i);
          }
        } else {
          std::vector<core::SemanticTrajectory> decoded;
          std::vector<std::size_t> positions;
          fragment.status = unit.reader->ReadTrajectoryBlock(
              unit.block, scan, decoded,
              unit.set != nullptr ? &positions : nullptr);
          if (!fragment.status.ok()) return fragment;
          for (std::size_t t = 0; t < decoded.size(); ++t) {
            process(decoded[t], /*movable=*/&decoded[t],
                    unit.set != nullptr ? positions[t] : 0);
          }
        }
        if (query.projection == Projection::kTopK) {
          TrimTopK(fragment, query.top_k.k);
        }
        return fragment;
      },
      /*grain=*/0, "query/unit");

  QueryResult result;
  result.projection = query.projection;
  for (std::size_t u = 0; u < units.size(); ++u) {
    Fragment& fragment = fragments[u];
    SITM_RETURN_IF_ERROR(fragment.status);
    if (units[u].reader != nullptr) result.stats.blocks_scanned += 1;
    result.stats.rows_scanned += units[u].rows;
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
  std::vector<WorkUnit> units;
  const std::uint64_t rows_total =
      AddChunks(trajectories, options_.chunk, /*set=*/nullptr, 0, units);
  SITM_ASSIGN_OR_RETURN(
      QueryResult result,
      Execute(query, bound, plan, std::move(units), options_.executor));
  result.stats.rows_total = rows_total;
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

  std::vector<WorkUnit> units;
  AddBlocks(reader, plan.pushdown, /*set=*/nullptr, 0, units);
  SITM_ASSIGN_OR_RETURN(
      QueryResult result,
      Execute(query, bound, plan, std::move(units), options_.executor));
  result.stats.blocks_total = reader.num_blocks();
  result.stats.rows_total = reader.rows();
  if (cacheable) options_.cache->Insert(cache_key, result);
  return result;
}

Result<QueryResult> QueryExecutor::Run(const Query& query,
                                       const storage::StoreSet& set) const {
  SITM_RETURN_IF_ERROR(set.Validate());
  SITM_ASSIGN_OR_RETURN(const BoundQuery bound, BindQuery(query, context_));
  const QueryPlan plan = Plan(bound.where);

  std::vector<WorkUnit> units;
  for (std::size_t s = 0; s < set.segments.size(); ++s) {
    AddBlocks(*set.segments[s].reader, plan.pushdown, &set, s, units);
  }
  std::uint64_t ordinal = 0;
  for (const storage::TrajectoryBatch& batch : set.tail) {
    AddChunks(*batch, options_.chunk, &set, ordinal, units);
    ordinal += batch->size();
  }
  SITM_ASSIGN_OR_RETURN(
      QueryResult result,
      Execute(query, bound, plan, std::move(units), options_.executor));
  result.stats.blocks_total = set.TotalBlocks();
  result.stats.rows_total = set.TotalRows();

  // Canonical ids rank by (object, start) over the whole set — the batch
  // pipeline's output order — and every unit emits its rows grouped by
  // trajectory, so a stable sort by id yields exactly the rows an
  // in-memory run over the batch build would. kTopK is already ranked.
  const auto by_trajectory = [](const auto& a, const auto& b) {
    return a.trajectory < b.trajectory;
  };
  std::stable_sort(
      result.trajectories.begin(), result.trajectories.end(),
      [](const auto& a, const auto& b) { return a.id() < b.id(); });
  std::stable_sort(result.tuples.begin(), result.tuples.end(), by_trajectory);
  std::sort(result.ids.begin(), result.ids.end());
  std::stable_sort(result.episodes.begin(), result.episodes.end(),
                   by_trajectory);
  return result;
}

}  // namespace sitm::query
