#pragma once

#include <optional>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "storage/event_store.h"

namespace sitm::query {

/// \brief The planner: splits a predicate into the part the storage
/// layer can answer from block metadata and the part that must be
/// evaluated per trajectory.
///
/// The pushdown summary is a *sound over-approximation* of the
/// predicate: every trajectory the predicate accepts satisfies the
/// summary, so pruning blocks/rows by the summary never loses a match.
/// The full predicate is re-applied to everything the storage layer
/// yields (the residual filter), so an imprecise summary costs time,
/// never correctness.

/// What a predicate implies about object ids and time, in the
/// vocabulary storage::ScanOptions understands.
struct PushdownSummary {
  /// The predicate is unsatisfiable (empty object set, inverted window,
  /// empty Allen mask, contradictory conjunction): the executor answers
  /// without touching storage at all.
  bool never_matches = false;
  /// Matching trajectories' objects lie in this set (sorted, unique);
  /// nullopt = unconstrained.
  std::optional<std::vector<ObjectId>> objects;
  /// Matching trajectories' [start, end] intersects this closed window;
  /// unset bounds are open.
  std::optional<Timestamp> min_time;
  std::optional<Timestamp> max_time;
  /// Annotation terms every match must carry somewhere (kind + value;
  /// scope is irrelevant for block pruning). Conjunction unions terms
  /// (all must hold), disjunction intersects (only terms required by
  /// every branch survive) — the usual lattice, with "no terms" as top.
  /// PlanBlocks prunes blocks whose annotation bitmaps exclude any
  /// term; stores without bitmaps are unaffected.
  std::vector<AnnotationTerm> annotations;

  bool HasConstraint() const {
    return never_matches || objects.has_value() || min_time.has_value() ||
           max_time.has_value() || !annotations.empty();
  }

  /// "objects{3} time[.., ..]" style rendering.
  std::string ToString() const;
};

/// A planned query: the pushdown summary plus the residual predicate
/// (the full bound predicate — see the soundness note above).
struct QueryPlan {
  PushdownSummary pushdown;
  Predicate residual;

  /// Human-readable one-liner ("pushdown: ... | residual: ...").
  std::string Explain() const;
};

/// \brief Derives the pushdown summary of a *bound* predicate by a
/// structural walk:
///  - ObjectIn / TimeWindow leaves push their constraint;
///  - Allen leaves whose mask excludes before/after imply intersection
///    with the probe and push it as a time window;
///  - And intersects child summaries, Or unions them, Not (and every
///    other leaf) is conservatively unconstrained.
QueryPlan Plan(const Predicate& bound_predicate);

/// Blocks of `reader` the plan must touch, ascending and unique: the
/// union of the object set's posting lists in the store's object index
/// (every block when the plan names no objects), intersected with
/// footer time-window pruning and — on stores carrying annotation
/// bitmaps — with bitmap pruning for every summarized annotation term.
std::vector<std::size_t> PlanBlocks(const storage::EventStoreReader& reader,
                                    const PushdownSummary& pushdown);

/// The summary as ScanOptions for row-level filtering: carries the time
/// window and the full object set (ScanOptions speaks multi-object
/// scans, so no residual per-row object check remains).
storage::ScanOptions ToScanOptions(const PushdownSummary& pushdown);

}  // namespace sitm::query

