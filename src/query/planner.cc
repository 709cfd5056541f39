#include "query/planner.h"

#include <algorithm>
#include <sstream>

namespace sitm::query {

namespace {

/// The unconstrained summary (matches-everything lattice top).
PushdownSummary Unconstrained() { return PushdownSummary{}; }

PushdownSummary Never() {
  PushdownSummary summary;
  summary.never_matches = true;
  return summary;
}

std::vector<ObjectId> IntersectSorted(const std::vector<ObjectId>& a,
                                      const std::vector<ObjectId>& b) {
  std::vector<ObjectId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<ObjectId> UnionSorted(const std::vector<ObjectId>& a,
                                  const std::vector<ObjectId>& b) {
  std::vector<ObjectId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Canonical term order (and equality) for the summary's annotation
/// list: by kind, then value; scope is ignored — two terms differing
/// only in scope prune identically.
bool TermLess(const AnnotationTerm& a, const AnnotationTerm& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.value < b.value;
}
bool TermEqual(const AnnotationTerm& a, const AnnotationTerm& b) {
  return a.kind == b.kind && a.value == b.value;
}

std::vector<AnnotationTerm> SortedUniqueTerms(std::vector<AnnotationTerm> t) {
  std::sort(t.begin(), t.end(), TermLess);
  t.erase(std::unique(t.begin(), t.end(), TermEqual), t.end());
  return t;
}

/// Conjunction: both constraints must hold, so constraints tighten.
PushdownSummary Meet(PushdownSummary a, const PushdownSummary& b) {
  if (a.never_matches || b.never_matches) return Never();
  a.annotations.insert(a.annotations.end(), b.annotations.begin(),
                       b.annotations.end());
  a.annotations = SortedUniqueTerms(std::move(a.annotations));
  if (b.objects.has_value()) {
    a.objects = a.objects.has_value() ? IntersectSorted(*a.objects, *b.objects)
                                      : *b.objects;
    if (a.objects->empty()) return Never();
  }
  if (b.min_time.has_value() &&
      (!a.min_time.has_value() || *b.min_time > *a.min_time)) {
    a.min_time = b.min_time;
  }
  if (b.max_time.has_value() &&
      (!a.max_time.has_value() || *b.max_time < *a.max_time)) {
    a.max_time = b.max_time;
  }
  if (a.min_time.has_value() && a.max_time.has_value() &&
      *a.max_time < *a.min_time) {
    // The bounds come from different windows, each valid alone (a
    // single inverted window is Never already). A trajectory spanning
    // the gap meets both, but ScanOptions reads an inverted window as
    // empty: keep only the later start bound, which every match meets.
    a.max_time.reset();
  }
  return a;
}

/// Disjunction: either side may hold, so constraints only survive when
/// both sides carry them.
PushdownSummary Join(PushdownSummary a, const PushdownSummary& b) {
  if (a.never_matches) return b;
  if (b.never_matches) return a;
  {
    // Only terms both branches require survive the disjunction. Both
    // sides are sorted unique (Summarize canonicalizes), so a set
    // intersection under the canonical order is exact.
    std::vector<AnnotationTerm> common;
    std::set_intersection(a.annotations.begin(), a.annotations.end(),
                          b.annotations.begin(), b.annotations.end(),
                          std::back_inserter(common), TermLess);
    a.annotations = std::move(common);
  }
  if (a.objects.has_value() && b.objects.has_value()) {
    a.objects = UnionSorted(*a.objects, *b.objects);
  } else {
    a.objects.reset();
  }
  if (a.min_time.has_value() && b.min_time.has_value()) {
    a.min_time = std::min(*a.min_time, *b.min_time);
  } else {
    a.min_time.reset();
  }
  if (a.max_time.has_value() && b.max_time.has_value()) {
    a.max_time = std::max(*a.max_time, *b.max_time);
  } else {
    a.max_time.reset();
  }
  return a;
}

PushdownSummary Summarize(const Predicate& predicate) {
  switch (predicate.kind()) {
    case PredicateKind::kAnd: {
      PushdownSummary summary = Unconstrained();
      for (const Predicate& child : predicate.children()) {
        summary = Meet(std::move(summary), Summarize(child));
        if (summary.never_matches) break;
      }
      return summary;
    }
    case PredicateKind::kOr: {
      const std::vector<Predicate> children = predicate.children();
      PushdownSummary summary = Never();
      for (const Predicate& child : children) {
        summary = Join(std::move(summary), Summarize(child));
      }
      return summary;
    }
    case PredicateKind::kObjectIn: {
      const std::vector<ObjectId>* objects = predicate.objects();
      if (objects->empty()) return Never();
      PushdownSummary summary;
      summary.objects = *objects;  // factory keeps them sorted unique
      return summary;
    }
    case PredicateKind::kTimeWindow: {
      PushdownSummary summary;
      summary.min_time = predicate.window_min();
      summary.max_time = predicate.window_max();
      if (summary.min_time.has_value() && summary.max_time.has_value() &&
          *summary.max_time < *summary.min_time) {
        return Never();
      }
      return summary;
    }
    case PredicateKind::kAllen: {
      const AllenConstraint* allen = predicate.allen();
      if (allen->mask.empty()) return Never();
      // Every non-before/after relation implies the closed intervals
      // share an instant, i.e. intersection with the probe window.
      if (allen->mask.ImpliesIntersection()) {
        PushdownSummary summary;
        summary.min_time = allen->probe.start();
        summary.max_time = allen->probe.end();
        return summary;
      }
      return Unconstrained();
    }
    case PredicateKind::kAnnotation: {
      // Whatever the scope, a matching trajectory carries the term in
      // some annotation set the block references — exactly what the v3
      // bitmaps index (trajectories never span blocks).
      const std::optional<AnnotationTerm> term = predicate.annotation();
      PushdownSummary summary;
      summary.annotations.push_back(*term);
      return summary;
    }
    case PredicateKind::kNot:
    default:
      // Negations and the remaining leaves constrain neither objects
      // nor time in ScanOptions vocabulary: stay conservative.
      return Unconstrained();
  }
}

}  // namespace

std::string PushdownSummary::ToString() const {
  if (never_matches) return "never";
  std::ostringstream out;
  bool any = false;
  if (objects.has_value()) {
    out << "objects{";
    for (std::size_t i = 0; i < objects->size(); ++i) {
      if (i > 0) out << ", ";
      out << (*objects)[i];
    }
    out << "}";
    any = true;
  }
  if (min_time.has_value() || max_time.has_value()) {
    if (any) out << " ";
    out << "time[" << (min_time ? min_time->ToString() : "..") << ", "
        << (max_time ? max_time->ToString() : "..") << "]";
    any = true;
  }
  if (!annotations.empty()) {
    if (any) out << " ";
    out << "annotations{";
    for (std::size_t i = 0; i < annotations.size(); ++i) {
      if (i > 0) out << ", ";
      out << core::AnnotationKindName(annotations[i].kind) << ":"
          << annotations[i].value;
    }
    out << "}";
    any = true;
  }
  if (!any) out << "unconstrained";
  return out.str();
}

std::string QueryPlan::Explain() const {
  return "pushdown: " + pushdown.ToString() +
         " | residual: " + residual.ToString();
}

QueryPlan Plan(const Predicate& bound_predicate) {
  QueryPlan plan;
  plan.pushdown = Summarize(bound_predicate);
  plan.residual = bound_predicate;
  return plan;
}

storage::ScanOptions ToScanOptions(const PushdownSummary& pushdown) {
  storage::ScanOptions scan;
  if (pushdown.objects.has_value()) {
    // Summaries keep the set sorted unique — the ScanOptions contract.
    scan.objects = *pushdown.objects;
  }
  scan.min_time = pushdown.min_time;
  scan.max_time = pushdown.max_time;
  if (pushdown.never_matches) {
    // The canonical empty window: matches no block and no row.
    scan.min_time = Timestamp(1);
    scan.max_time = Timestamp(0);
  }
  return scan;
}

std::vector<std::size_t> PlanBlocks(const storage::EventStoreReader& reader,
                                    const PushdownSummary& pushdown) {
  if (pushdown.never_matches) return {};
  std::vector<std::size_t> blocks =
      reader.CandidateBlocks(ToScanOptions(pushdown));
  if (!pushdown.annotations.empty()) {
    blocks.erase(std::remove_if(blocks.begin(), blocks.end(),
                                [&](std::size_t b) {
                                  for (const AnnotationTerm& term :
                                       pushdown.annotations) {
                                    if (!reader.BlockMayContainAnnotation(
                                            b, term.kind, term.value)) {
                                      return true;
                                    }
                                  }
                                  return false;
                                }),
                 blocks.end());
  }
  return blocks;
}

}  // namespace sitm::query
