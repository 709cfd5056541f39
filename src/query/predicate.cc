#include "query/predicate.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "qsr/topology.h"
#include "storage/event_store.h"

namespace sitm::query {

// ---------------------------------------------------------------------------
// AllenMask / AllenConstraint.
// ---------------------------------------------------------------------------

AllenMask AllenMask::Of(std::initializer_list<qsr::AllenRelation> relations) {
  std::uint16_t bits = 0;
  for (qsr::AllenRelation r : relations) {
    bits = static_cast<std::uint16_t>(bits | (1u << static_cast<int>(r)));
  }
  return AllenMask(bits);
}

AllenMask AllenMask::Intersecting() {
  AllenMask m = All();
  std::uint16_t bits = m.bits_;
  bits = static_cast<std::uint16_t>(
      bits & ~(1u << static_cast<int>(qsr::AllenRelation::kBefore)));
  bits = static_cast<std::uint16_t>(
      bits & ~(1u << static_cast<int>(qsr::AllenRelation::kAfter)));
  return AllenMask(bits);
}

AllenMask AllenMask::Within() {
  return Of({qsr::AllenRelation::kDuring, qsr::AllenRelation::kStarts,
             qsr::AllenRelation::kFinishes, qsr::AllenRelation::kEquals});
}

int AllenMask::Count() const {
  int count = 0;
  for (int i = 0; i < qsr::kNumAllenRelations; ++i) {
    if ((bits_ >> i) & 1u) ++count;
  }
  return count;
}

AllenMask AllenMask::With(qsr::AllenRelation r) const {
  return AllenMask(
      static_cast<std::uint16_t>(bits_ | (1u << static_cast<int>(r))));
}

bool AllenMask::ImpliesIntersection() const {
  return !empty() && !Contains(qsr::AllenRelation::kBefore) &&
         !Contains(qsr::AllenRelation::kAfter);
}

std::string AllenMask::ToString() const {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < qsr::kNumAllenRelations; ++i) {
    const auto r = static_cast<qsr::AllenRelation>(i);
    if (!Contains(r)) continue;
    if (!first) out += ", ";
    out += qsr::AllenRelationName(r);
    first = false;
  }
  out += "}";
  return out;
}

bool AllenConstraint::Admits(const qsr::TimeInterval& candidate) const {
  return mask.Contains(qsr::ClassifyIntervals(candidate, probe));
}

// ---------------------------------------------------------------------------
// Node.
// ---------------------------------------------------------------------------

struct Predicate::Node {
  PredicateKind kind = PredicateKind::kTrue;
  std::vector<Predicate> children;

  std::vector<ObjectId> objects;                // kObjectIn, sorted unique
  std::optional<Timestamp> min_time, max_time;  // kTimeWindow
  std::optional<AllenConstraint> allen;         // kAllen / kEpisodeAllen

  // Spatial leaves. `cells` is authoritative once `cells_resolved`;
  // kCellIn is born resolved, the symbolic leaves resolve in Bind().
  std::unordered_set<CellId> cells;
  bool cells_resolved = false;
  CellId zone;                         // kInZone
  LayerId layer;                       // kInLayer
  geom::Point point{0, 0};             // kAtPoint
  std::string region_name;             // kInRegion
  qsr::RelationSet region_relations;   // kInRegion

  core::AnnotationKind ann_kind = core::AnnotationKind::kOther;  // kAnnotation
  std::string ann_value;
  AnnotationScope ann_scope = AnnotationScope::kAnywhere;

  std::string episode_label;  // kHasEpisode / kEpisodeAllen ("" = any)
};

Predicate MakePredicate(std::shared_ptr<const Predicate::Node> node) {
  return Predicate(std::move(node));
}

const Predicate::Node& NodeOf(const Predicate& predicate) {
  return *predicate.node_;
}

namespace {

using Node = Predicate::Node;

std::shared_ptr<Node> NewNode(PredicateKind kind) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  return node;
}

/// True iff the leaf kind carries a cell set once bound.
bool IsSpatialLeaf(PredicateKind kind) {
  switch (kind) {
    case PredicateKind::kCellIn:
    case PredicateKind::kInZone:
    case PredicateKind::kInLayer:
    case PredicateKind::kAtPoint:
    case PredicateKind::kInRegion:
      return true;
    default:
      return false;
  }
}

bool EpisodeLabelMatches(const Node& node, const EpisodeRef& episode) {
  return node.episode_label.empty() || *episode.label == node.episode_label;
}

template <typename Rows>
bool AnnotationOnTrajectory(const Node& node, const Rows& rows) {
  return rows.annotations().Contains(node.ann_kind, node.ann_value);
}

template <typename Rows>
bool AnnotationOnRow(const Node& node, const Rows& rows, std::size_t r) {
  return rows.stay(r).Contains(node.ann_kind, node.ann_value) ||
         rows.transition(r).Contains(node.ann_kind, node.ann_value);
}

/// True iff some episode the node's label admits contains row `row`
/// (any episode when `row` is nullopt) and, for kEpisodeAllen, its
/// interval satisfies the constraint.
template <typename Rows>
bool EpisodeMatches(const Node& node, const Rows& rows,
                    const std::vector<EpisodeRef>& episodes,
                    std::optional<std::size_t> row) {
  for (const EpisodeRef& episode : episodes) {
    if (!EpisodeLabelMatches(node, episode)) continue;
    if (row.has_value() && (*row < episode.begin || *row >= episode.end)) {
      continue;
    }
    if (node.kind == PredicateKind::kHasEpisode) return true;
    const auto interval = RangeInterval(rows, episode.begin, episode.end);
    if (interval.has_value() && node.allen->Admits(*interval)) return true;
  }
  return false;
}

/// Trajectory-level evaluation: spatial and tuple-scoped annotation
/// leaves hold iff some row satisfies them, time leaves test the span
/// [start of the first row, end of the last].
template <typename Rows>
bool EvalTrajectory(const Node& node, const Rows& rows,
                    const std::vector<EpisodeRef>& episodes) {
  const std::size_t n = rows.size();
  switch (node.kind) {
    case PredicateKind::kTrue:
      return true;
    case PredicateKind::kAnd:
      for (const Predicate& child : node.children) {
        if (!EvalTrajectory(NodeOf(child), rows, episodes)) return false;
      }
      return true;
    case PredicateKind::kOr:
      for (const Predicate& child : node.children) {
        if (EvalTrajectory(NodeOf(child), rows, episodes)) return true;
      }
      return false;
    case PredicateKind::kNot:
      return !EvalTrajectory(NodeOf(node.children.front()), rows, episodes);
    case PredicateKind::kObjectIn:
      return std::binary_search(node.objects.begin(), node.objects.end(),
                                rows.object());
    case PredicateKind::kTimeWindow:
      if (n == 0) return false;
      return storage::WindowIntersects(node.min_time, node.max_time,
                                       rows.start(), rows.end());
    case PredicateKind::kAllen: {
      if (n == 0) return false;
      const auto interval = qsr::TimeInterval::Make(rows.start(), rows.end());
      return interval.ok() && node.allen->Admits(*interval);
    }
    case PredicateKind::kCellIn:
    case PredicateKind::kInZone:
    case PredicateKind::kInLayer:
    case PredicateKind::kAtPoint:
    case PredicateKind::kInRegion:
      if (!node.cells_resolved) return false;  // unbound: match nothing
      for (std::size_t r = 0; r < n; ++r) {
        if (node.cells.count(rows.cell(r)) > 0) return true;
      }
      return false;
    case PredicateKind::kAnnotation:
      switch (node.ann_scope) {
        case AnnotationScope::kTrajectory:
          return AnnotationOnTrajectory(node, rows);
        case AnnotationScope::kTuple:
          break;
        case AnnotationScope::kAnywhere:
          if (AnnotationOnTrajectory(node, rows)) return true;
          break;
      }
      for (std::size_t r = 0; r < n; ++r) {
        if (AnnotationOnRow(node, rows, r)) return true;
      }
      return false;
    case PredicateKind::kHasEpisode:
    case PredicateKind::kEpisodeAllen:
      return EpisodeMatches(node, rows, episodes, std::nullopt);
  }
  return false;
}

/// Tuple-level evaluation of row `r`: spatial and annotation leaves test
/// the row itself, time leaves its interval, object leaves the parent's
/// object, episode leaves whether the row lies inside a matching
/// episode.
template <typename Rows>
bool EvalTuple(const Node& node, const Rows& rows, std::size_t r,
               const std::vector<EpisodeRef>& episodes) {
  if (r >= rows.size()) return false;
  switch (node.kind) {
    case PredicateKind::kTrue:
      return true;
    case PredicateKind::kAnd:
      for (const Predicate& child : node.children) {
        if (!EvalTuple(NodeOf(child), rows, r, episodes)) return false;
      }
      return true;
    case PredicateKind::kOr:
      for (const Predicate& child : node.children) {
        if (EvalTuple(NodeOf(child), rows, r, episodes)) return true;
      }
      return false;
    case PredicateKind::kNot:
      return !EvalTuple(NodeOf(node.children.front()), rows, r, episodes);
    case PredicateKind::kObjectIn:
      return std::binary_search(node.objects.begin(), node.objects.end(),
                                rows.object());
    case PredicateKind::kTimeWindow:
      return storage::WindowIntersects(node.min_time, node.max_time,
                                       rows.start(r), rows.end(r));
    case PredicateKind::kAllen: {
      const auto interval = RangeInterval(rows, r, r + 1);
      return interval.has_value() && node.allen->Admits(*interval);
    }
    case PredicateKind::kCellIn:
    case PredicateKind::kInZone:
    case PredicateKind::kInLayer:
    case PredicateKind::kAtPoint:
    case PredicateKind::kInRegion:
      return node.cells_resolved && node.cells.count(rows.cell(r)) > 0;
    case PredicateKind::kAnnotation:
      switch (node.ann_scope) {
        case AnnotationScope::kTrajectory:
          return AnnotationOnTrajectory(node, rows);
        case AnnotationScope::kTuple:
          return AnnotationOnRow(node, rows, r);
        case AnnotationScope::kAnywhere:
          return AnnotationOnTrajectory(node, rows) ||
                 AnnotationOnRow(node, rows, r);
      }
      return false;
    case PredicateKind::kHasEpisode:
    case PredicateKind::kEpisodeAllen:
      return EpisodeMatches(node, rows, episodes, r);
  }
  return false;
}

/// The episodes by reference (they must outlive the result).
std::vector<EpisodeRef> RefsOf(const std::vector<core::Episode>* episodes) {
  std::vector<EpisodeRef> refs;
  if (episodes == nullptr) return refs;
  refs.reserve(episodes->size());
  for (const core::Episode& episode : *episodes) {
    refs.push_back(
        {&episode.label, &episode.annotations, episode.begin, episode.end});
  }
  return refs;
}

}  // namespace

// ---------------------------------------------------------------------------
// Predicate.
// ---------------------------------------------------------------------------

Predicate::Predicate() : node_(NewNode(PredicateKind::kTrue)) {}

PredicateKind Predicate::kind() const { return node_->kind; }

bool Predicate::bound() const {
  if (IsSpatialLeaf(node_->kind) && !node_->cells_resolved) return false;
  for (const Predicate& child : node_->children) {
    if (!child.bound()) return false;
  }
  return true;
}

bool Predicate::MatchesTrajectory(
    const core::SemanticTrajectory& trajectory,
    const std::vector<core::Episode>* episodes) const {
  return Matches(TrajectoryRows(trajectory), RefsOf(episodes));
}

bool Predicate::MatchesTuple(const core::SemanticTrajectory& trajectory,
                             std::size_t index,
                             const std::vector<core::Episode>* episodes) const {
  return MatchesTuple(TrajectoryRows(trajectory), index, RefsOf(episodes));
}

bool Predicate::Matches(const TrajectoryRows& rows,
                        const std::vector<EpisodeRef>& episodes) const {
  return EvalTrajectory(*node_, rows, episodes);
}

bool Predicate::Matches(const ViewRows& rows,
                        const std::vector<EpisodeRef>& episodes) const {
  return EvalTrajectory(*node_, rows, episodes);
}

bool Predicate::MatchesTuple(const TrajectoryRows& rows, std::size_t index,
                             const std::vector<EpisodeRef>& episodes) const {
  return EvalTuple(*node_, rows, index, episodes);
}

bool Predicate::MatchesTuple(const ViewRows& rows, std::size_t index,
                             const std::vector<EpisodeRef>& episodes) const {
  return EvalTuple(*node_, rows, index, episodes);
}

std::vector<Predicate> Predicate::children() const { return node_->children; }

const std::vector<ObjectId>* Predicate::objects() const {
  return node_->kind == PredicateKind::kObjectIn ? &node_->objects : nullptr;
}

std::optional<Timestamp> Predicate::window_min() const {
  return node_->kind == PredicateKind::kTimeWindow ? node_->min_time
                                                   : std::nullopt;
}

std::optional<Timestamp> Predicate::window_max() const {
  return node_->kind == PredicateKind::kTimeWindow ? node_->max_time
                                                   : std::nullopt;
}

const AllenConstraint* Predicate::allen() const {
  return node_->allen.has_value() ? &*node_->allen : nullptr;
}

std::optional<AnnotationTerm> Predicate::annotation() const {
  if (node_->kind != PredicateKind::kAnnotation) return std::nullopt;
  AnnotationTerm term;
  term.kind = node_->ann_kind;
  term.value = node_->ann_value;
  term.scope = node_->ann_scope;
  return term;
}

Result<Predicate> Predicate::Bind(const QueryContext& context) const {
  const Node& node = *node_;
  switch (node.kind) {
    case PredicateKind::kAnd:
    case PredicateKind::kOr:
    case PredicateKind::kNot: {
      auto bound = NewNode(node.kind);
      bound->children.reserve(node.children.size());
      for (const Predicate& child : node.children) {
        SITM_ASSIGN_OR_RETURN(Predicate bound_child, child.Bind(context));
        bound->children.push_back(std::move(bound_child));
      }
      return MakePredicate(std::move(bound));
    }
    case PredicateKind::kInZone: {
      if (node.cells_resolved) return *this;
      if (context.hierarchy == nullptr) {
        return Status::InvalidArgument(
            "query: InZone needs QueryContext::hierarchy");
      }
      SITM_RETURN_IF_ERROR(
          context.hierarchy->LevelOfCell(node.zone).status().WithContext(
              "query: InZone ancestor"));
      auto bound = std::make_shared<Node>(node);
      bound->cells.insert(node.zone);
      for (CellId cell : context.hierarchy->Descendants(node.zone)) {
        bound->cells.insert(cell);
      }
      bound->cells_resolved = true;
      return MakePredicate(std::move(bound));
    }
    case PredicateKind::kInLayer: {
      if (node.cells_resolved) return *this;
      if (context.graph == nullptr) {
        return Status::InvalidArgument(
            "query: InLayer needs QueryContext::graph");
      }
      SITM_ASSIGN_OR_RETURN(const indoor::SpaceLayer* layer,
                            context.graph->FindLayer(node.layer));
      auto bound = std::make_shared<Node>(node);
      for (const indoor::CellSpace& cell : layer->graph().cells()) {
        bound->cells.insert(cell.id());
      }
      bound->cells_resolved = true;
      return MakePredicate(std::move(bound));
    }
    case PredicateKind::kAtPoint: {
      if (node.cells_resolved) return *this;
      if (context.locator == nullptr) {
        return Status::InvalidArgument(
            "query: AtPoint needs QueryContext::locator");
      }
      auto bound = std::make_shared<Node>(node);
      for (CellId cell : context.locator->LocalizeAll(node.point)) {
        bound->cells.insert(cell);
      }
      bound->cells_resolved = true;
      return MakePredicate(std::move(bound));
    }
    case PredicateKind::kInRegion: {
      if (node.cells_resolved) return *this;
      if (context.graph == nullptr) {
        return Status::InvalidArgument(
            "query: InRegion needs QueryContext::graph");
      }
      const NamedRegion* named = nullptr;
      for (const NamedRegion& region : context.regions) {
        if (region.name == node.region_name) {
          named = &region;
          break;
        }
      }
      if (named == nullptr) {
        return Status::InvalidArgument("query: unknown region '" +
                                       node.region_name + "'");
      }
      auto bound = std::make_shared<Node>(node);
      for (const indoor::SpaceLayer& layer : context.graph->layers()) {
        for (const indoor::CellSpace& cell : layer.graph().cells()) {
          if (!cell.has_geometry()) continue;
          SITM_ASSIGN_OR_RETURN(
              const qsr::TopologicalRelation relation,
              qsr::ClassifyRegions(*cell.geometry(), named->region));
          if (node.region_relations.Contains(relation)) {
            bound->cells.insert(cell.id());
          }
        }
      }
      bound->cells_resolved = true;
      return MakePredicate(std::move(bound));
    }
    default:
      return *this;  // non-spatial leaves are born bound
  }
}

std::string Predicate::ToString() const {
  const Node& node = *node_;
  std::ostringstream out;
  switch (node.kind) {
    case PredicateKind::kTrue:
      return "true";
    case PredicateKind::kAnd:
    case PredicateKind::kOr: {
      const char* op = node.kind == PredicateKind::kAnd ? " and " : " or ";
      out << "(";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out << op;
        out << node.children[i].ToString();
      }
      out << ")";
      return out.str();
    }
    case PredicateKind::kNot:
      return "not " + node.children.front().ToString();
    case PredicateKind::kObjectIn: {
      out << "object in {";
      for (std::size_t i = 0; i < node.objects.size(); ++i) {
        if (i > 0) out << ", ";
        out << node.objects[i];
      }
      out << "}";
      return out.str();
    }
    case PredicateKind::kTimeWindow:
      out << "time in ["
          << (node.min_time ? node.min_time->ToString() : "..") << ", "
          << (node.max_time ? node.max_time->ToString() : "..") << "]";
      return out.str();
    case PredicateKind::kAllen:
      out << "allen " << node.allen->mask.ToString() << " probe ["
          << node.allen->probe.start().ToString() << ", "
          << node.allen->probe.end().ToString() << "]";
      return out.str();
    case PredicateKind::kCellIn:
    case PredicateKind::kInZone:
    case PredicateKind::kInLayer:
    case PredicateKind::kAtPoint:
    case PredicateKind::kInRegion: {
      switch (node.kind) {
        case PredicateKind::kCellIn:
          out << "cell in";
          break;
        case PredicateKind::kInZone:
          out << "in zone " << node.zone;
          break;
        case PredicateKind::kInLayer:
          out << "in layer " << node.layer;
          break;
        case PredicateKind::kAtPoint:
          out << "at (" << node.point.x << ", " << node.point.y << ")";
          break;
        default:
          out << "in region '" << node.region_name << "' "
              << node.region_relations.ToString();
          break;
      }
      if (node.cells_resolved) {
        out << " <" << node.cells.size() << " cells>";
      } else {
        out << " <unbound>";
      }
      return out.str();
    }
    case PredicateKind::kAnnotation: {
      static constexpr const char* kScopeNames[] = {"traj", "tuple", "any"};
      out << "has " << core::AnnotationKindName(node.ann_kind) << ":"
          << node.ann_value << " ("
          << kScopeNames[static_cast<int>(node.ann_scope)] << ")";
      return out.str();
    }
    case PredicateKind::kHasEpisode:
      out << "has episode '"
          << (node.episode_label.empty() ? "*" : node.episode_label) << "'";
      return out.str();
    case PredicateKind::kEpisodeAllen:
      out << "episode '"
          << (node.episode_label.empty() ? "*" : node.episode_label)
          << "' allen " << node.allen->mask.ToString();
      return out.str();
  }
  return "?";
}

namespace {

/// Length-prefixed string: no value can forge a key delimiter.
void KeyString(std::ostringstream& out, const std::string& s) {
  out << s.size() << ':' << s;
}

void KeyTimestamp(std::ostringstream& out,
                  const std::optional<Timestamp>& t) {
  if (t.has_value()) {
    out << t->seconds_since_epoch();
  } else {
    out << '_';
  }
}

void AppendCanonicalKey(const Node& node, std::ostringstream& out) {
  out << static_cast<int>(node.kind) << '(';
  switch (node.kind) {
    case PredicateKind::kTrue:
      break;
    case PredicateKind::kAnd:
    case PredicateKind::kOr:
    case PredicateKind::kNot:
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out << ',';
        out << node.children[i].CanonicalKey();
      }
      break;
    case PredicateKind::kObjectIn:
      for (std::size_t i = 0; i < node.objects.size(); ++i) {
        if (i > 0) out << ',';
        out << node.objects[i].value();
      }
      break;
    case PredicateKind::kTimeWindow:
      KeyTimestamp(out, node.min_time);
      out << ',';
      KeyTimestamp(out, node.max_time);
      break;
    case PredicateKind::kAllen:
      out << node.allen->mask.ToString() << ','
          << node.allen->probe.start().seconds_since_epoch() << ','
          << node.allen->probe.end().seconds_since_epoch();
      break;
    case PredicateKind::kCellIn:
    case PredicateKind::kInZone:
    case PredicateKind::kInLayer:
    case PredicateKind::kAtPoint:
    case PredicateKind::kInRegion:
      if (node.cells_resolved) {
        // A bound spatial leaf's semantics is exactly its cell set:
        // render it completely, sorted for canonical order.
        std::vector<std::int64_t> cells;
        cells.reserve(node.cells.size());
        for (CellId cell : node.cells) cells.push_back(cell.value());
        std::sort(cells.begin(), cells.end());
        out << "cells:";
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (i > 0) out << ',';
          out << cells[i];
        }
      } else {
        // Unbound leaves never reach evaluation (the executor binds
        // first); render the symbolic parameters for completeness.
        out << "unbound:" << node.zone.value() << ','
            << node.layer.value() << ',';
        out.precision(17);
        out << node.point.x << ',' << node.point.y << ',';
        KeyString(out, node.region_name);
        out << ',' << node.region_relations.ToString();
      }
      break;
    case PredicateKind::kAnnotation:
      out << static_cast<int>(node.ann_kind) << ','
          << static_cast<int>(node.ann_scope) << ',';
      KeyString(out, node.ann_value);
      break;
    case PredicateKind::kHasEpisode:
      KeyString(out, node.episode_label);
      break;
    case PredicateKind::kEpisodeAllen:
      KeyString(out, node.episode_label);
      out << ',' << node.allen->mask.ToString() << ','
          << node.allen->probe.start().seconds_since_epoch() << ','
          << node.allen->probe.end().seconds_since_epoch();
      break;
  }
  out << ')';
}

}  // namespace

std::string Predicate::CanonicalKey() const {
  std::ostringstream out;
  AppendCanonicalKey(*node_, out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

Predicate All() { return Predicate(); }

Predicate And(Predicate a, Predicate b) {
  auto node = NewNode(PredicateKind::kAnd);
  node->children = {std::move(a), std::move(b)};
  return MakePredicate(std::move(node));
}

Predicate Or(Predicate a, Predicate b) {
  auto node = NewNode(PredicateKind::kOr);
  node->children = {std::move(a), std::move(b)};
  return MakePredicate(std::move(node));
}

Predicate Not(Predicate a) {
  auto node = NewNode(PredicateKind::kNot);
  node->children = {std::move(a)};
  return MakePredicate(std::move(node));
}

Predicate ObjectIn(std::vector<ObjectId> objects) {
  auto node = NewNode(PredicateKind::kObjectIn);
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  node->objects = std::move(objects);
  return MakePredicate(std::move(node));
}

Predicate ObjectIs(ObjectId object) { return ObjectIn({object}); }

Predicate TimeWindow(std::optional<Timestamp> min,
                     std::optional<Timestamp> max) {
  auto node = NewNode(PredicateKind::kTimeWindow);
  node->min_time = min;
  node->max_time = max;
  return MakePredicate(std::move(node));
}

Predicate AllenAgainst(AllenMask mask, qsr::TimeInterval probe) {
  auto node = NewNode(PredicateKind::kAllen);
  node->allen = AllenConstraint{mask, probe};
  return MakePredicate(std::move(node));
}

Predicate InCells(std::unordered_set<CellId> cells) {
  auto node = NewNode(PredicateKind::kCellIn);
  node->cells = std::move(cells);
  node->cells_resolved = true;
  return MakePredicate(std::move(node));
}

Predicate InCell(CellId cell) { return InCells({cell}); }

Predicate InZone(CellId ancestor) {
  auto node = NewNode(PredicateKind::kInZone);
  node->zone = ancestor;
  return MakePredicate(std::move(node));
}

Predicate InLayer(LayerId layer) {
  auto node = NewNode(PredicateKind::kInLayer);
  node->layer = layer;
  return MakePredicate(std::move(node));
}

Predicate AtPoint(geom::Point p) {
  auto node = NewNode(PredicateKind::kAtPoint);
  node->point = p;
  return MakePredicate(std::move(node));
}

Predicate InRegion(std::string region_name, qsr::RelationSet relations) {
  auto node = NewNode(PredicateKind::kInRegion);
  node->region_name = std::move(region_name);
  node->region_relations = relations;
  return MakePredicate(std::move(node));
}

Predicate HasAnnotation(core::AnnotationKind kind, std::string value,
                        AnnotationScope scope) {
  auto node = NewNode(PredicateKind::kAnnotation);
  node->ann_kind = kind;
  node->ann_value = std::move(value);
  node->ann_scope = scope;
  return MakePredicate(std::move(node));
}

Predicate HasEpisode(std::string label) {
  auto node = NewNode(PredicateKind::kHasEpisode);
  node->episode_label = std::move(label);
  return MakePredicate(std::move(node));
}

Predicate EpisodeAllen(std::string label, AllenMask mask,
                       qsr::TimeInterval probe) {
  auto node = NewNode(PredicateKind::kEpisodeAllen);
  node->episode_label = std::move(label);
  node->allen = AllenConstraint{mask, probe};
  return MakePredicate(std::move(node));
}

}  // namespace sitm::query
