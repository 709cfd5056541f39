#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace sitm::core {

/// \brief Kind of a semantic annotation (§3.3).
///
/// The paper distinguishes: an *activity* concerns targeted/conscious
/// actions; a *behavior* concerns less intentional actions or reactions
/// (both describe the actuality of movement); a *goal* concerns the
/// potentiality of movement (e.g. a disrupted activity). kOther covers
/// application-specific enrichment ("any additional data that enrich the
/// knowledge about a trajectory", [21]).
enum class AnnotationKind : int {
  kActivity = 0,
  kBehavior = 1,
  kGoal = 2,
  kOther = 3,
};

/// Stable name ("activity", "behavior", "goal", "other").
std::string_view AnnotationKindName(AnnotationKind k);

/// \brief One semantic annotation: a kind plus a value
/// (e.g. goal:"buy souvenir", behavior:"rushing").
struct SemanticAnnotation {
  AnnotationKind kind = AnnotationKind::kOther;
  std::string value;

  SemanticAnnotation() = default;
  SemanticAnnotation(AnnotationKind k, std::string v)
      : kind(k), value(std::move(v)) {}

  friend bool operator==(const SemanticAnnotation& a,
                         const SemanticAnnotation& b) {
    return a.kind == b.kind && a.value == b.value;
  }
  friend bool operator!=(const SemanticAnnotation& a,
                         const SemanticAnnotation& b) {
    return !(a == b);
  }
  friend bool operator<(const SemanticAnnotation& a,
                        const SemanticAnnotation& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.value < b.value;
  }
};

/// \brief A set of semantic annotations (A_traj or A_i of Defs. 3.1/3.2).
///
/// Set semantics: insertion order is irrelevant, duplicates collapse,
/// equality is structural. Equality matters in the model: an episode
/// requires A' != A (Def. 3.4), and the event-based representation opens
/// a new tuple exactly when the annotation set changes (§3.3).
class AnnotationSet {
 public:
  AnnotationSet() = default;

  /// Builds a set from a list (duplicates collapse).
  AnnotationSet(std::initializer_list<SemanticAnnotation> annotations);

  /// Adds an annotation; returns true if it was not already present.
  bool Add(SemanticAnnotation annotation);
  bool Add(AnnotationKind kind, std::string value) {
    return Add(SemanticAnnotation(kind, std::move(value)));
  }

  /// Removes an annotation; returns true if it was present.
  bool Remove(const SemanticAnnotation& annotation);

  bool Contains(const SemanticAnnotation& annotation) const {
    return Contains(annotation.kind, annotation.value);
  }
  /// Compares in place: builds no string.
  bool Contains(AnnotationKind kind, std::string_view value) const;

  /// All values of the given kind, sorted.
  std::vector<std::string> ValuesOf(AnnotationKind kind) const;

  /// True iff at least one annotation of the kind is present.
  bool HasKind(AnnotationKind kind) const;

  std::size_t size() const { return annotations_.size(); }
  bool empty() const { return annotations_.empty(); }

  /// Sorted contents.
  const std::vector<SemanticAnnotation>& annotations() const {
    return annotations_;
  }

  /// The set union of this and `other`.
  AnnotationSet Union(const AnnotationSet& other) const;

  friend bool operator==(const AnnotationSet& a, const AnnotationSet& b) {
    return a.annotations_ == b.annotations_;
  }
  friend bool operator!=(const AnnotationSet& a, const AnnotationSet& b) {
    return !(a == b);
  }

  /// "{goals:[visit,buy]}" style rendering, close to the paper's
  /// notation.
  std::string ToString() const;

 private:
  // Kept sorted and unique.
  std::vector<SemanticAnnotation> annotations_;
};

std::ostream& operator<<(std::ostream& os, const AnnotationSet& set);

}  // namespace sitm::core

