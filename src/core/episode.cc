#include "core/episode.h"

namespace sitm::core {

Result<qsr::TimeInterval> Episode::IntervalIn(
    const SemanticTrajectory& parent) const {
  if (begin >= end || end > parent.trace().size()) {
    return Status::OutOfRange("Episode: range [" + std::to_string(begin) +
                              ", " + std::to_string(end) +
                              ") is outside the parent trace");
  }
  return qsr::TimeInterval::Make(parent.trace().at(begin).start(),
                                 parent.trace().at(end - 1).end());
}

EpisodePredicate ForAllTuples(TupleCondition condition) {
  return [condition = std::move(condition)](const SemanticTrajectory& parent,
                                            std::size_t begin,
                                            std::size_t end) {
    if (begin >= end || end > parent.trace().size()) return false;
    for (std::size_t i = begin; i < end; ++i) {
      if (!condition(parent, i)) return false;
    }
    return true;
  };
}

bool TupleCondition::operator()(const SemanticTrajectory& parent,
                                std::size_t index) const {
  const PresenceInterval& tuple = parent.trace().at(index);
  return Holds(tuple.duration(), tuple.cell, tuple.annotations);
}

TupleCondition And(TupleCondition a, TupleCondition b) {
  a.leaves_.insert(a.leaves_.end(), std::make_move_iterator(b.leaves_.begin()),
                   std::make_move_iterator(b.leaves_.end()));
  return a;
}

TupleCondition StayAtLeast(Duration min_stay) {
  TupleCondition condition;
  condition.leaves_.push_back(
      {TupleCondition::Leaf::Kind::kStayAtLeast, min_stay, nullptr, {}});
  return condition;
}

TupleCondition InCells(std::unordered_set<CellId> cells) {
  TupleCondition condition;
  condition.leaves_.push_back(
      {TupleCondition::Leaf::Kind::kInCells, Duration::Zero(),
       std::make_shared<const std::unordered_set<CellId>>(std::move(cells)),
       {}});
  return condition;
}

TupleCondition HasAnnotation(AnnotationKind kind, std::string value) {
  TupleCondition condition;
  condition.leaves_.push_back({TupleCondition::Leaf::Kind::kHasAnnotation,
                               Duration::Zero(), nullptr,
                               SemanticAnnotation(kind, std::move(value))});
  return condition;
}

Status ValidateEpisode(const SemanticTrajectory& parent,
                       const Episode& episode,
                       const EpisodePredicate& predicate) {
  SITM_RETURN_IF_ERROR(parent.Validate());
  // (1) Proper subtrajectory: Subtrajectory() enforces the range and the
  // proper-bounds condition of Def. 3.3.
  SITM_RETURN_IF_ERROR(
      parent.Subtrajectory(episode.begin, episode.end, episode.annotations)
          .status());
  // (2) A' != A.
  if (episode.annotations == parent.annotations()) {
    return Status::FailedPrecondition(
        "Episode '" + episode.label +
        "': annotations equal the parent trajectory's (Def. 3.4 requires "
        "A' != A)");
  }
  // (3) P_ep holds.
  if (predicate && !predicate(parent, episode.begin, episode.end)) {
    return Status::FailedPrecondition("Episode '" + episode.label +
                                      "': predicate not satisfied");
  }
  return Status::OK();
}

std::vector<Episode> ExtractMaximalEpisodes(const SemanticTrajectory& parent,
                                            const TupleCondition& condition,
                                            const std::string& label,
                                            const AnnotationSet& annotations) {
  std::vector<Episode> out;
  ForEachMaximalRun(
      parent.trace().size(),
      [&](std::size_t i) { return condition(parent, i); },
      [&](std::size_t begin, std::size_t end) {
        out.emplace_back(label, begin, end, annotations);
      });
  return out;
}

Result<EpisodicSegmentation> EpisodicSegmentation::Make(
    const SemanticTrajectory* parent, std::vector<Episode> episodes) {
  if (parent == nullptr) {
    return Status::InvalidArgument(
        "EpisodicSegmentation: parent must not be null");
  }
  SITM_RETURN_IF_ERROR(parent->Validate());
  if (episodes.empty()) {
    return Status::InvalidArgument(
        "EpisodicSegmentation: at least one episode is required");
  }
  // "Covers it time-wise" is checked over the *observed* presence: every
  // tuple of the parent's trace must belong to at least one episode. A
  // trace with sensing holes has unobservable wall-clock stretches that
  // no episode could meaningfully assert anything about, so wall-clock
  // coverage would make segmentation of any gappy trajectory impossible.
  std::vector<bool> covered(parent->trace().size(), false);
  for (const Episode& ep : episodes) {
    SITM_RETURN_IF_ERROR(
        ValidateEpisode(*parent, ep, /*predicate=*/nullptr));
    for (std::size_t i = ep.begin; i < ep.end; ++i) covered[i] = true;
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    if (!covered[i]) {
      return Status::FailedPrecondition(
          "EpisodicSegmentation: the episodes do not cover the trajectory "
          "time-wise (§3.3): tuple " + std::to_string(i) +
          " belongs to no episode");
    }
  }
  EpisodicSegmentation seg;
  seg.parent_ = parent;
  seg.episodes_ = std::move(episodes);
  return seg;
}

std::vector<std::pair<std::size_t, std::size_t>>
EpisodicSegmentation::OverlappingPairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::vector<qsr::TimeInterval> intervals;
  intervals.reserve(episodes_.size());
  for (const Episode& ep : episodes_) {
    intervals.push_back(*ep.IntervalIn(*parent_));
  }
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t j = i + 1; j < intervals.size(); ++j) {
      if (intervals[i].InteriorsIntersect(intervals[j])) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

}  // namespace sitm::core
