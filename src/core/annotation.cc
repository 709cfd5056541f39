#include "core/annotation.h"

#include <algorithm>

namespace sitm::core {

std::string_view AnnotationKindName(AnnotationKind k) {
  switch (k) {
    case AnnotationKind::kActivity:
      return "activity";
    case AnnotationKind::kBehavior:
      return "behavior";
    case AnnotationKind::kGoal:
      return "goal";
    case AnnotationKind::kOther:
      return "other";
  }
  return "unknown";
}

AnnotationSet::AnnotationSet(
    std::initializer_list<SemanticAnnotation> annotations) {
  for (const SemanticAnnotation& a : annotations) Add(a);
}

bool AnnotationSet::Add(SemanticAnnotation annotation) {
  auto it = std::lower_bound(annotations_.begin(), annotations_.end(),
                             annotation);
  if (it != annotations_.end() && *it == annotation) return false;
  annotations_.insert(it, std::move(annotation));
  return true;
}

bool AnnotationSet::Remove(const SemanticAnnotation& annotation) {
  auto it = std::lower_bound(annotations_.begin(), annotations_.end(),
                             annotation);
  if (it == annotations_.end() || *it != annotation) return false;
  annotations_.erase(it);
  return true;
}

bool AnnotationSet::Contains(AnnotationKind kind,
                             std::string_view value) const {
  // The set's own order (operator<): kind, then value.
  const auto it = std::lower_bound(
      annotations_.begin(), annotations_.end(), kind,
      [value](const SemanticAnnotation& a, AnnotationKind k) {
        if (a.kind != k) return a.kind < k;
        return std::string_view(a.value) < value;
      });
  return it != annotations_.end() && it->kind == kind && it->value == value;
}

std::vector<std::string> AnnotationSet::ValuesOf(AnnotationKind kind) const {
  std::vector<std::string> out;
  for (const SemanticAnnotation& a : annotations_) {
    if (a.kind == kind) out.push_back(a.value);
  }
  return out;
}

bool AnnotationSet::HasKind(AnnotationKind kind) const {
  return std::any_of(annotations_.begin(), annotations_.end(),
                     [kind](const SemanticAnnotation& a) {
                       return a.kind == kind;
                     });
}

AnnotationSet AnnotationSet::Union(const AnnotationSet& other) const {
  AnnotationSet out = *this;
  for (const SemanticAnnotation& a : other.annotations_) out.Add(a);
  return out;
}

std::string AnnotationSet::ToString() const {
  std::string out = "{";
  bool first_kind = true;
  for (AnnotationKind kind :
       {AnnotationKind::kActivity, AnnotationKind::kBehavior,
        AnnotationKind::kGoal, AnnotationKind::kOther}) {
    const std::vector<std::string> values = ValuesOf(kind);
    if (values.empty()) continue;
    if (!first_kind) out += ", ";
    first_kind = false;
    out += AnnotationKindName(kind);
    out += "s:[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += values[i];
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::ostream& operator<<(std::ostream& os, const AnnotationSet& set) {
  return os << set.ToString();
}

}  // namespace sitm::core
