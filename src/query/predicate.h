#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/result.h"
#include "core/episode.h"
#include "core/projection.h"
#include "core/trajectory.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "indoor/hierarchy.h"
#include "indoor/multilayer.h"
#include "qsr/interval.h"
#include "qsr/rcc8.h"
#include "storage/event_store.h"

namespace sitm::query {

/// \brief The predicate algebra of the semantic trajectory query engine.
///
/// The paper's model exists to make indoor trajectories *queryable*:
/// "which objects were in the Denon wing between 14:00 and 15:00",
/// "visitors whose visit overlaps (Allen) the guided tour", "stops
/// annotated exhibit:MonaLisa". A Predicate is an immutable expression
/// tree over a trajectory (and, where meaningful, over its individual
/// tuples): leaf constraints on object ids, time windows, Allen
/// relations against a probe interval, cell/zone/layer/point/region
/// membership, annotations, and extracted episodes — composed with
/// And/Or/Not.
///
/// Symbolic leaves (zone, layer, point, named region) are written
/// against the indoor space model and resolved to concrete cell-id sets
/// by Bind() against a QueryContext before evaluation; evaluation after
/// Bind touches no shared mutable state and is safe to run concurrently
/// from any number of threads.

/// A named spatial region queries can constrain against with RCC-8
/// relations (e.g. "the Richelieu wing footprint", "the fire-assembly
/// rectangle").
struct NamedRegion {
  std::string name;
  geom::Polygon region;
};

/// Resolution context for Bind(). All pointers are borrowed and may be
/// null; binding a predicate that needs a missing facility fails with
/// InvalidArgument naming it.
struct QueryContext {
  /// Zone membership (InZone) and nothing else.
  const indoor::LayerHierarchy* hierarchy = nullptr;
  /// Layer membership (InLayer) and cell geometry for region
  /// constraints (InRegion).
  const indoor::MultiLayerGraph* graph = nullptr;
  /// Raw-point membership (AtPoint): which cells contain a coordinate.
  const core::CellLocator* locator = nullptr;
  /// Regions InRegion leaves may name.
  std::vector<NamedRegion> regions;
};

/// \brief A set of Allen relations, as a bitmask over qsr::AllenRelation.
///
/// Temporal constraints are phrased as "the candidate interval stands in
/// one of these relations to the probe" — e.g. {during, starts,
/// finishes, equals} for "entirely inside the guided tour".
class AllenMask {
 public:
  constexpr AllenMask() : bits_(0) {}

  static AllenMask Of(std::initializer_list<qsr::AllenRelation> relations);
  static constexpr AllenMask All() {
    return AllenMask((1u << qsr::kNumAllenRelations) - 1);
  }
  /// The eleven relations implying the closed intervals share at least
  /// one instant (everything but before/after). This is the mask the
  /// planner can push down as a time window.
  static AllenMask Intersecting();
  /// {during, starts, finishes, equals}: candidate entirely inside the
  /// probe.
  static AllenMask Within();

  bool Contains(qsr::AllenRelation r) const {
    return (bits_ >> static_cast<int>(r)) & 1u;
  }
  bool empty() const { return bits_ == 0; }
  int Count() const;
  AllenMask With(qsr::AllenRelation r) const;

  /// True iff every relation in the mask implies the candidate interval
  /// intersects the probe (no before/after), enabling time-window
  /// pushdown.
  bool ImpliesIntersection() const;

  friend constexpr AllenMask operator|(AllenMask a, AllenMask b) {
    return AllenMask(static_cast<std::uint16_t>(a.bits_ | b.bits_));
  }
  friend constexpr bool operator==(AllenMask a, AllenMask b) {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(AllenMask a, AllenMask b) {
    return a.bits_ != b.bits_;
  }

  /// "{during, starts}" style rendering.
  std::string ToString() const;

 private:
  constexpr explicit AllenMask(std::uint16_t bits) : bits_(bits) {}
  std::uint16_t bits_;
};

/// An Allen constraint: the candidate interval must stand in one of the
/// masked relations to the probe interval.
struct AllenConstraint {
  AllenMask mask;
  qsr::TimeInterval probe;

  /// True iff ClassifyIntervals(candidate, probe) is in the mask.
  bool Admits(const qsr::TimeInterval& candidate) const;
};

/// Which annotation sets an annotation predicate inspects.
enum class AnnotationScope : int {
  kTrajectory = 0,  ///< A_traj only.
  kTuple = 1,       ///< per-stay A_i of some tuple.
  kAnywhere = 2,    ///< A_traj or any tuple's A_i.
};

/// The payload of a kAnnotation leaf, exposed for planner
/// introspection (annotation-bitmap pushdown keys on kind + value; the
/// scope does not matter for block pruning, since the v3 bitmaps cover
/// trajectory, stay, and transition sets alike).
struct AnnotationTerm {
  core::AnnotationKind kind = core::AnnotationKind::kOther;
  std::string value;
  AnnotationScope scope = AnnotationScope::kAnywhere;
};

/// One extracted episode by reference, as the evaluator and the executor
/// pass it: the label and annotations it carries (borrowed from its
/// core::Episode or from the query's episode spec) and its row range
/// [begin, end) in its trajectory.
struct EpisodeRef {
  const std::string* label = nullptr;
  const core::AnnotationSet* annotations = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// \brief The row accessors a trajectory is evaluated through:
/// TrajectoryRows over a built trajectory, ViewRows over a store block's
/// decoded columns. Both answer the same questions of row `r` (start,
/// end, stay duration, cell, stay and transition annotations, the whole
/// tuple) and of the whole (object, first start and last end of its
/// non-empty trace, A_traj, the trajectory itself), so the one
/// evaluator, episode extraction, RangeInterval and the projections give
/// both sources the same answers. Both borrow their source; Tuple() and
/// Build(id) copy out of a built trajectory and build out of a view, and
/// Build gives the result the id it is emitted with.
class TrajectoryRows {
 public:
  explicit TrajectoryRows(const core::SemanticTrajectory& trajectory)
      : trajectory_(trajectory), rows_(trajectory.trace().intervals()) {}

  ObjectId object() const { return trajectory_.object(); }
  std::size_t size() const { return rows_.size(); }
  Timestamp start() const { return trajectory_.start(); }
  Timestamp end() const { return trajectory_.end(); }
  Timestamp start(std::size_t r) const { return rows_[r].start(); }
  Timestamp end(std::size_t r) const { return rows_[r].end(); }
  Duration duration(std::size_t r) const { return rows_[r].duration(); }
  CellId cell(std::size_t r) const { return rows_[r].cell; }
  const core::AnnotationSet& annotations() const {
    return trajectory_.annotations();
  }
  const core::AnnotationSet& stay(std::size_t r) const {
    return rows_[r].annotations;
  }
  const core::AnnotationSet& transition(std::size_t r) const {
    return rows_[r].transition_annotations;
  }
  const core::PresenceInterval& Tuple(std::size_t r) const { return rows_[r]; }
  core::SemanticTrajectory Build(TrajectoryId as) const {
    return core::SemanticTrajectory(as, trajectory_.object(),
                                    trajectory_.trace(),
                                    trajectory_.annotations());
  }

 private:
  const core::SemanticTrajectory& trajectory_;
  const std::vector<core::PresenceInterval>& rows_;
};

class ViewRows {
 public:
  explicit ViewRows(const storage::TrajectoryView& view) : view_(view) {}

  ObjectId object() const { return view_.object; }
  std::size_t size() const { return view_.rows; }
  Timestamp start() const { return view_.start; }
  Timestamp end() const { return view_.end; }
  Timestamp start(std::size_t r) const { return view_.RowStart(r); }
  Timestamp end(std::size_t r) const { return view_.RowEnd(r); }
  Duration duration(std::size_t r) const { return view_.RowDuration(r); }
  CellId cell(std::size_t r) const { return view_.Cell(r); }
  const core::AnnotationSet& annotations() const {
    return view_.Annotations();
  }
  const core::AnnotationSet& stay(std::size_t r) const {
    return view_.StayAnnotations(r);
  }
  const core::AnnotationSet& transition(std::size_t r) const {
    return view_.TransitionAnnotations(r);
  }
  core::PresenceInterval Tuple(std::size_t r) const { return view_.Tuple(r); }
  core::SemanticTrajectory Build(TrajectoryId as) const {
    return view_.Build(as);
  }

 private:
  const storage::TrajectoryView& view_;
};

/// The interval [start of row `begin`, end of row `end` - 1] — an
/// episode's interval in its trajectory — or nullopt for an empty,
/// out-of-range or inverted range.
template <typename Rows>
std::optional<qsr::TimeInterval> RangeInterval(const Rows& rows,
                                               std::size_t begin,
                                               std::size_t end) {
  if (begin >= end || end > rows.size()) return std::nullopt;
  const auto interval =
      qsr::TimeInterval::Make(rows.start(begin), rows.end(end - 1));
  if (!interval.ok()) return std::nullopt;
  return *interval;
}

/// Node kinds, exposed for the planner's structural walk.
enum class PredicateKind : int {
  kTrue = 0,   ///< matches everything
  kAnd,
  kOr,
  kNot,
  kObjectIn,   ///< moving object in an id set
  kTimeWindow, ///< trajectory/tuple interval intersects a closed window
  kAllen,      ///< Allen relation against a probe interval
  kCellIn,     ///< some tuple's cell in a concrete id set
  kInZone,     ///< some tuple's cell at/under a hierarchy ancestor
  kInLayer,    ///< some tuple's cell belongs to a space layer
  kAtPoint,    ///< some tuple's cell contains a raw coordinate
  kInRegion,   ///< some tuple's cell geometry relates (RCC-8) to a named region
  kAnnotation, ///< carries annotation kind:value (scoped)
  kHasEpisode, ///< an extracted episode with the given label exists
  kEpisodeAllen, ///< such an episode also satisfies an Allen constraint
};

/// \brief An immutable, shareable predicate expression.
///
/// Copy is O(1) (nodes are shared); all factories below return fresh
/// trees. Default-constructed predicates match everything.
class Predicate {
 public:
  Predicate();  ///< kTrue

  PredicateKind kind() const;

  /// \brief Resolves symbolic spatial leaves against `context`,
  /// returning a bound copy: InZone becomes the ancestor's descendant
  /// cell set, InLayer the layer's cell set, AtPoint the localized cell
  /// set, InRegion the set of geometry-bearing cells whose RCC-8
  /// relation to the named region is admitted.
  ///
  /// Fails with InvalidArgument when a leaf needs a facility the
  /// context does not provide, names an unknown region/zone/layer, or
  /// region classification fails. Binding an already-bound or purely
  /// non-spatial predicate is the identity.
  [[nodiscard]] Result<Predicate> Bind(const QueryContext& context) const;

  /// True iff every symbolic leaf has been resolved. Evaluating an
  /// unbound predicate is a contract violation: unresolved leaves
  /// evaluate to false, which under Not() silently *over*-matches
  /// (Not(InZone(z)) on an unbound tree accepts everything, including
  /// trajectories inside z). Always Bind() first — the executor does —
  /// and treat bound() as the precondition of the Matches* calls.
  bool bound() const;

  /// \brief Trajectory-level evaluation. Spatial leaves hold iff *some*
  /// tuple satisfies them; time leaves test the trajectory's overall
  /// interval; `episodes` are the episodes extracted for this
  /// trajectory (null when the query extracts none).
  bool MatchesTrajectory(const core::SemanticTrajectory& trajectory,
                         const std::vector<core::Episode>* episodes =
                             nullptr) const;

  /// \brief Tuple-level evaluation (the kTuples projection): spatial
  /// and annotation leaves test tuple `index` itself, time leaves test
  /// the tuple's interval, object leaves the parent's object, and
  /// episode leaves whether the tuple lies inside a matching episode.
  bool MatchesTuple(const core::SemanticTrajectory& trajectory,
                    std::size_t index,
                    const std::vector<core::Episode>* episodes =
                        nullptr) const;

  /// \brief The same evaluations over a row accessor, with the
  /// episodes given by reference. Over ViewRows they decide every leaf
  /// of a bound predicate on a block's decoded columns and give the
  /// answers MatchesTrajectory and MatchesTuple give on the trajectory
  /// the view would build: one evaluator reads both accessors.
  bool Matches(const TrajectoryRows& rows,
               const std::vector<EpisodeRef>& episodes) const;
  bool Matches(const ViewRows& rows,
               const std::vector<EpisodeRef>& episodes) const;
  bool MatchesTuple(const TrajectoryRows& rows, std::size_t index,
                    const std::vector<EpisodeRef>& episodes) const;
  bool MatchesTuple(const ViewRows& rows, std::size_t index,
                    const std::vector<EpisodeRef>& episodes) const;

  /// Planner introspection (non-null/engaged only for the matching
  /// kind).
  std::vector<Predicate> children() const;
  const std::vector<ObjectId>* objects() const;        ///< kObjectIn
  std::optional<Timestamp> window_min() const;         ///< kTimeWindow
  std::optional<Timestamp> window_max() const;         ///< kTimeWindow
  const AllenConstraint* allen() const;  ///< kAllen / kEpisodeAllen
  std::optional<AnnotationTerm> annotation() const;  ///< kAnnotation

  /// "(object in {3, 9} and time in [.., ..])" style rendering.
  std::string ToString() const;

  /// \brief A content-complete, injective rendering of the tree:
  /// structurally different predicates produce different keys, and —
  /// unlike ToString, which elides bound cell sets as "<N cells>" —
  /// bound spatial leaves render their full sorted cell-id list.
  /// Strings are length-prefixed so no value can forge a delimiter.
  /// This is the predicate half of a query-result cache key.
  std::string CanonicalKey() const;

  /// Opaque tree node (defined in predicate.cc; public only so the
  /// implementation's helpers can name it).
  struct Node;

 private:
  friend Predicate MakePredicate(std::shared_ptr<const Node> node);
  friend const Node& NodeOf(const Predicate& predicate);
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Leaf and composite factories. Conjunction/disjunction of an empty
/// list is All() / nothing-matches respectively is not provided — use
/// the explicit forms.
Predicate All();
Predicate And(Predicate a, Predicate b);
Predicate Or(Predicate a, Predicate b);
Predicate Not(Predicate a);

/// Moving object in `objects` (dedup'd; empty set matches nothing).
Predicate ObjectIn(std::vector<ObjectId> objects);
Predicate ObjectIs(ObjectId object);

/// Interval intersects the closed window [min, max] (unset bound =
/// open; inverted window matches nothing). The leaf evaluates through
/// storage::WindowIntersects, the rule ScanOptions filters with, which
/// is what makes it pushdownable.
Predicate TimeWindow(std::optional<Timestamp> min, std::optional<Timestamp> max);

/// Interval stands in one of the masked Allen relations to `probe`.
Predicate AllenAgainst(AllenMask mask, qsr::TimeInterval probe);

/// Some tuple's cell is in `cells` (already concrete: needs no Bind).
Predicate InCells(std::unordered_set<CellId> cells);
Predicate InCell(CellId cell);

/// Some tuple's cell is `ancestor` or lies under it in the layer
/// hierarchy (requires QueryContext::hierarchy).
Predicate InZone(CellId ancestor);

/// Some tuple's cell belongs to `layer` (requires QueryContext::graph).
Predicate InLayer(LayerId layer);

/// Some tuple's cell contains the raw coordinate `p` (requires
/// QueryContext::locator).
Predicate AtPoint(geom::Point p);

/// Some tuple's cell has geometry whose RCC-8 relation to the named
/// region is in `relations` (requires QueryContext::graph and the
/// region in QueryContext::regions).
Predicate InRegion(std::string region_name, qsr::RelationSet relations);

/// Carries `kind:value` in the scoped annotation set(s).
Predicate HasAnnotation(core::AnnotationKind kind, std::string value,
                        AnnotationScope scope = AnnotationScope::kAnywhere);

/// An extracted episode labeled `label` exists (empty label = any).
Predicate HasEpisode(std::string label);

/// An extracted episode labeled `label` (empty = any) whose interval
/// satisfies the Allen constraint exists.
Predicate EpisodeAllen(std::string label, AllenMask mask,
                       qsr::TimeInterval probe);

}  // namespace sitm::query

