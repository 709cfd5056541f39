#include "query/executor.h"

#include <algorithm>
#include <cmath>
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
  std::size_t k = 0;                  // kTopK
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
  /// kTopK: a heap of at most k entries under ScoredBefore, its top
  /// the fragment's k-th best so far.
  std::vector<ScoredTrajectory> scored;
  std::vector<CellId> cells;  // kTopK scratch: the scored cell sequence
  /// Scratch: the episodes extracted for the trajectory at hand.
  std::vector<EpisodeRef> extracted;
  std::uint64_t considered = 0;
  std::uint64_t matched = 0;
  Status status;  // block units: decode failures surface in unit order
};

/// Deterministic ranking: similarity descending, id ascending.
bool ScoredBefore(const ScoredTrajectory& a, const ScoredTrajectory& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.trajectory < b.trajectory;
}

/// Sets `cells` to the rows' cell sequence with runs collapsed, as
/// mining::CellSequenceOf does.
template <typename Rows>
void SetCells(const Rows& rows, std::vector<CellId>& cells) {
  cells.clear();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const CellId cell = rows.cell(r);
    if (cells.empty() || cells.back() != cell) cells.push_back(cell);
  }
}

/// Offers trajectory `id`, whose cell sequence is `fragment.cells`, to
/// the fragment's top-k heap. Any global top-k entry is in its own
/// fragment's top-k, so per-fragment heaps never change the merged
/// answer. Once the heap is full, the k-th best similarity s_k bounds
/// the edit distance worth computing, d <= (1 - s_k) * max(|a|, |b|),
/// and the banded DP stops past it: a candidate it rejects scores
/// strictly below s_k. One it accepts gets its exact distance, hence
/// EditSimilarity's exact value, and ScoredBefore alone decides whether
/// it displaces the k-th — so ties keep ascending-id order.
void ScoreTopK(const BoundQuery& bound, TrajectoryId id, Fragment& fragment) {
  std::vector<ScoredTrajectory>& heap = fragment.scored;
  if (bound.k == 0) return;
  ScoredTrajectory scored;
  scored.trajectory = id;
  if (heap.size() < bound.k) {
    scored.similarity =
        mining::EditSimilarity(bound.probe_cells, fragment.cells, bound.cost);
    heap.push_back(scored);
    std::push_heap(heap.begin(), heap.end(), ScoredBefore);
    return;
  }
  const std::size_t longest =
      std::max(bound.probe_cells.size(), fragment.cells.size());
  if (longest == 0) {
    scored.similarity = 1.0;  // two empty sequences, as EditSimilarity
  } else {
    const double distance = mining::EditDistanceBounded(
        bound.probe_cells, fragment.cells, bound.cost,
        mining::EditDistanceCutoff(heap.front().similarity, longest));
    if (std::isinf(distance)) return;
    scored.similarity = 1.0 - distance / static_cast<double>(longest);
  }
  if (!ScoredBefore(scored, heap.front())) return;
  std::pop_heap(heap.begin(), heap.end(), ScoredBefore);
  heap.back() = scored;
  std::push_heap(heap.begin(), heap.end(), ScoredBefore);
}

/// Sets `out` to the episodes of every spec, in spec order, each spec's
/// maximal runs in row order.
template <typename Rows>
void ExtractEpisodes(const Query& query, const Rows& rows,
                     std::vector<EpisodeRef>& out) {
  out.clear();
  for (const EpisodeSpec& spec : query.episodes) {
    core::ForEachMaximalRun(
        rows.size(),
        [&](std::size_t r) {
          return spec.condition.Holds(rows.duration(r), rows.cell(r),
                                      rows.stay(r));
        },
        [&](std::size_t begin, std::size_t end) {
          out.push_back({&spec.label, &spec.annotations, begin, end});
        });
  }
}

bool EpisodePassesFilter(const EpisodeFilter& filter,
                         const EpisodeRef& episode,
                         const qsr::TimeInterval& interval) {
  if (!filter.label.empty() && *episode.label != filter.label) return false;
  if (filter.allen.has_value() && !filter.allen->Admits(interval)) {
    return false;
  }
  return true;
}

/// Evaluates one trajectory — built (TrajectoryRows) or a block's view
/// of one (ViewRows) — and appends its contribution to `fragment`.
/// Only a match's emitted values are built: the trajectory for
/// kTrajectories, the emitted tuples for kTuples. `id_of()` yields the
/// id the rows carry; it runs only for a match that emits rows.
template <typename Rows, typename IdOf>
void Process(const Query& query, const BoundQuery& bound, const Rows& rows,
             const IdOf& id_of, Fragment& fragment) {
  fragment.considered += 1;
  std::vector<EpisodeRef>& episodes = fragment.extracted;
  episodes.clear();
  if (bound.episodes_before_filter) ExtractEpisodes(query, rows, episodes);
  if (!bound.where.Matches(rows, episodes)) return;
  fragment.matched += 1;
  if (query.projection == Projection::kCount) return;  // matched is the payload
  const TrajectoryId id = id_of();
  if (bound.episodes_after_filter && !bound.episodes_before_filter) {
    ExtractEpisodes(query, rows, episodes);
  }
  switch (query.projection) {
    case Projection::kTrajectories:
      fragment.trajectories.push_back(rows.Build(id));
      return;
    case Projection::kTuples:
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!bound.tuple_where.MatchesTuple(rows, i, episodes)) continue;
        TupleRow row;
        row.trajectory = id;
        row.object = rows.object();
        row.index = i;
        row.tuple = rows.Tuple(i);
        fragment.tuples.push_back(std::move(row));
      }
      return;
    case Projection::kIds:
      fragment.ids.push_back(id);
      return;
    case Projection::kCount:
      return;
    case Projection::kEpisodes:
      for (const EpisodeRef& episode : episodes) {
        // Extracted ranges are valid; a forged store's inverted rows
        // yield no interval and no row, on both sources alike.
        const auto interval = RangeInterval(rows, episode.begin, episode.end);
        if (!interval.has_value()) continue;
        if (!EpisodePassesFilter(query.episode_filter, episode, *interval)) {
          continue;
        }
        EpisodeRow row;
        row.trajectory = id;
        row.object = rows.object();
        row.episode = core::Episode(*episode.label, episode.begin,
                                    episode.end, *episode.annotations);
        row.interval = *interval;
        fragment.episodes.push_back(std::move(row));
      }
      return;
    case Projection::kTopK:
      SetCells(rows, fragment.cells);
      ScoreTopK(bound, id, fragment);
      return;
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
    bound.k = query.top_k.k;
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

  /// The id the trajectory at `position` of this unit emits: its stored
  /// id or, in a StoreSet, its canonical one.
  TrajectoryId IdOf(TrajectoryId stored, ObjectId object, Timestamp start,
                    std::uint64_t position) const {
    if (set == nullptr) return stored;
    return set->CanonicalId(source, {object.value(),
                                     start.seconds_since_epoch(),
                                     first_ordinal + position});
  }
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

/// Moves `from`'s rows to the end of `to`, taking its buffer when `to`
/// is still empty.
template <typename T>
void AppendRows(std::vector<T>& to, std::vector<T>& from) {
  if (to.empty()) {
    to.swap(from);
    return;
  }
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

/// The one execution loop: runs every unit into its own Fragment on
/// `runner`, then merges the fragments in unit order — the first decode
/// failure in unit order wins. Every block unit counts as a scanned
/// block and every unit's rows as scanned rows; the caller fills in the
/// totals of its source. Chunk units evaluate their borrowed
/// trajectories, block units each kept trajectory's view, through the
/// same Process.
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
        if (unit.reader == nullptr) {
          for (std::size_t i = 0; i < unit.size; ++i) {
            const core::SemanticTrajectory& t = unit.chunk[i];
            Process(query, bound, TrajectoryRows(t),
                    [&] { return unit.IdOf(t.id(), t.object(), t.start(), i); },
                    fragment);
          }
          return fragment;
        }
        fragment.status = unit.reader->ReadTrajectoryBlock(
            unit.block, scan, [&](const storage::TrajectoryView& view) {
              Process(query, bound, ViewRows(view),
                      [&] {
                        return unit.IdOf(view.id, view.object, view.start,
                                         view.position);
                      },
                      fragment);
            });
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
    // Block units build exactly the trajectories they emit.
    if (units[u].reader != nullptr) {
      result.stats.trajectories_built += fragment.trajectories.size();
    }
    AppendRows(result.trajectories, fragment.trajectories);
    AppendRows(result.tuples, fragment.tuples);
    AppendRows(result.ids, fragment.ids);
    AppendRows(result.episodes, fragment.episodes);
    AppendRows(result.top_k, fragment.scored);
  }
  result.count = result.stats.trajectories_matched;
  if (query.projection == Projection::kTopK) {
    // Fragments arrive as heaps of at most k candidates each; this
    // final sort ranks at most fragments x k entries.
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
      << " matched/considered, " << trajectories_built << " built";
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
