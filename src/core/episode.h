#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/trajectory.h"

namespace sitm::core {

/// \brief An episode of a semantic trajectory (Def. 3.4): a semantic
/// subtrajectory whose annotation set differs from the parent's and that
/// satisfies a domain-dependent, user-defined predicate P_ep.
///
/// Episodes are stored by interval index range [begin, end) into the
/// parent's trace, plus their own annotations and a human-readable label
/// naming the predicate that produced them ("exit museum",
/// "buy souvenir", ...).
struct Episode {
  std::string label;
  std::size_t begin = 0;  ///< first interval index (inclusive)
  std::size_t end = 0;    ///< one past the last interval index
  AnnotationSet annotations;

  Episode() = default;
  Episode(std::string l, std::size_t b, std::size_t e, AnnotationSet a)
      : label(std::move(l)), begin(b), end(e), annotations(std::move(a)) {}

  /// The episode's time interval within `parent`.
  [[nodiscard]] Result<qsr::TimeInterval> IntervalIn(const SemanticTrajectory& parent) const;
};

/// \brief The user-defined episode predicate P_ep : T' -> {true, false},
/// evaluated on a candidate range of the parent's trace.
using EpisodePredicate = std::function<bool(
    const SemanticTrajectory& parent, std::size_t begin, std::size_t end)>;

/// \brief A per-tuple condition, lifted to ranges by requiring it on
/// every tuple of the range (the common shape of episode predicates).
///
/// A closed value: a conjunction of the leaves the factories below make,
/// each reading one column of a tuple (its stay duration, its cell or
/// its stay annotations), so a condition can be evaluated on a built
/// trajectory and on a store block's decoded columns alike, with the
/// same answer. The default condition is the empty conjunction and holds
/// on every tuple. Arbitrary per-range predicates are EpisodePredicates.
class TupleCondition {
 public:
  TupleCondition() = default;

  /// True iff every leaf holds on one tuple given as its stay duration,
  /// cell and stay annotation set (A_i).
  bool Holds(Duration stay, CellId cell,
             const AnnotationSet& stay_annotations) const;

  /// Holds() on tuple `index` of `parent`'s trace.
  bool operator()(const SemanticTrajectory& parent, std::size_t index) const;

  friend TupleCondition And(TupleCondition a, TupleCondition b);
  friend TupleCondition StayAtLeast(Duration min_stay);
  friend TupleCondition InCells(std::unordered_set<CellId> cells);
  friend TupleCondition HasAnnotation(AnnotationKind kind, std::string value);

 private:
  struct Leaf {
    enum class Kind { kStayAtLeast, kInCells, kHasAnnotation } kind;
    Duration min_stay;
    std::shared_ptr<const std::unordered_set<CellId>> cells;
    SemanticAnnotation annotation;
  };

  std::vector<Leaf> leaves_;
};

inline bool TupleCondition::Holds(Duration stay, CellId cell,
                                  const AnnotationSet& stay_annotations) const {
  for (const Leaf& leaf : leaves_) {
    switch (leaf.kind) {
      case Leaf::Kind::kStayAtLeast:
        if (stay < leaf.min_stay) return false;
        break;
      case Leaf::Kind::kInCells:
        if (leaf.cells->count(cell) == 0) return false;
        break;
      case Leaf::Kind::kHasAnnotation:
        if (!stay_annotations.Contains(leaf.annotation)) return false;
        break;
    }
  }
  return true;
}

/// Lifts a per-tuple condition to an EpisodePredicate (true iff the
/// condition holds on every tuple in [begin, end)).
EpisodePredicate ForAllTuples(TupleCondition condition);

/// Predicate factories for common episode definitions:

/// Every tuple's stay lasts at least `min_stay` (stop/move segmentation
/// in the style of [3], via temporal stay thresholds).
TupleCondition StayAtLeast(Duration min_stay);

/// Every tuple's cell is in the given set (spatial episodes).
TupleCondition InCells(std::unordered_set<CellId> cells);

/// Every tuple carries the given annotation (goal-related episodes, as
/// in the paper's Fig. 5 example).
TupleCondition HasAnnotation(AnnotationKind kind, std::string value);

/// Both conditions on every tuple.
TupleCondition And(TupleCondition a, TupleCondition b);

/// \brief Calls `emit(begin, end)` for each *maximal* run [begin, end)
/// of rows 0..n-1 on which `holds(row)` is true, in row order. A run
/// equal to all n rows is shrunk by dropping the last row if possible
/// (an episode must be a proper subtrajectory); a single-row whole run
/// is skipped. The one extraction rule for built trajectories and for
/// a store block's columns.
template <typename Holds, typename Emit>
void ForEachMaximalRun(std::size_t n, const Holds& holds, const Emit& emit) {
  std::size_t i = 0;
  while (i < n) {
    if (!holds(i)) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && holds(j)) ++j;
    if (i == 0 && j == n) {
      if (n == 1) return;  // cannot make a proper part of a single tuple
      --j;
    }
    emit(i, j);
    i = j + 1;
  }
}

/// \brief Checks Def. 3.4 for one episode: (1) [begin, end) is a proper
/// subtrajectory range of `parent`; (2) the episode's annotations differ
/// from the parent's (A' != A); (3) the predicate holds on the range.
[[nodiscard]] Status ValidateEpisode(const SemanticTrajectory& parent,
                       const Episode& episode,
                       const EpisodePredicate& predicate);

/// \brief Extracts all *maximal* ranges on which `condition` holds on
/// every tuple, as episodes labeled `label` carrying `annotations`
/// (ForEachMaximalRun over the trace).
std::vector<Episode> ExtractMaximalEpisodes(const SemanticTrajectory& parent,
                                            const TupleCondition& condition,
                                            const std::string& label,
                                            const AnnotationSet& annotations);

/// \brief An episodic segmentation (§3.3): a set of episodes of one
/// trajectory that covers it time-wise.
///
/// Contrary to typical practice ([26]), episodes *may overlap in time*:
/// "the exact same movement part may have multiple meanings depending on
/// the broader context" — the paper's E→P→S→C part carries both the
/// "exit museum" and "buy souvenir" goals (Fig. 5).
class EpisodicSegmentation {
 public:
  /// Builds and validates a segmentation: every episode must be a
  /// structurally valid sub-range with annotations differing from the
  /// parent's, and together they must cover the trajectory time-wise —
  /// interpreted over the observed presence: every tuple of the parent's
  /// trace belongs to at least one episode. (Wall-clock coverage would be
  /// unsatisfiable for traces with sensing holes; no episode can assert
  /// meaning about unobserved stretches. Predicate satisfaction is
  /// checked at extraction time — predicates are user-defined and not
  /// stored.)
  [[nodiscard]] static Result<EpisodicSegmentation> Make(const SemanticTrajectory* parent,
                                           std::vector<Episode> episodes);

  const std::vector<Episode>& episodes() const { return episodes_; }
  const SemanticTrajectory& parent() const { return *parent_; }

  /// Index pairs (i, j), i < j, of episodes whose time intervals'
  /// interiors intersect.
  std::vector<std::pair<std::size_t, std::size_t>> OverlappingPairs() const;

  /// True iff at least one pair of episodes overlaps in time.
  bool HasOverlaps() const { return !OverlappingPairs().empty(); }

 private:
  EpisodicSegmentation() = default;

  const SemanticTrajectory* parent_ = nullptr;
  std::vector<Episode> episodes_;
};

}  // namespace sitm::core

