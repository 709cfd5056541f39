#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/result.h"
#include "core/trajectory.h"
#include "storage/event_store.h"

namespace sitm::storage {

/// A trajectory's (object, start seconds) plus its ordinal in its
/// source (a segment's file position, or a StoreSet tail position).
struct TrajectoryKey {
  std::int64_t object = 0;
  std::int64_t start = 0;
  std::uint64_t ordinal = 0;

  friend bool operator<(const TrajectoryKey& a, const TrajectoryKey& b) {
    return std::tie(a.object, a.start, a.ordinal) <
           std::tie(b.object, b.start, b.ordinal);
  }
};

/// The keys of `trajectories` (ordinal = position), sorted. Every trace
/// must be non-empty.
std::vector<TrajectoryKey> SortedKeys(
    const std::vector<core::SemanticTrajectory>& trajectories);

/// Every sealed trajectory of a segment list in (object, start, segment,
/// ordinal) order: `keys` in that order, with ordinals made global
/// (`offsets[s]` + ordinal in segment s; `offsets` ends with the total),
/// and `rank[g]` the position of global ordinal g in `keys`.
struct SealedRanks {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> rank;
  std::vector<TrajectoryKey> keys;
};

/// Merges the segments' SortedKeys lists (`sorted[s]` for segment s).
SealedRanks RankSegments(
    const std::vector<const std::vector<TrajectoryKey>*>& sorted);

/// An immutable batch of finalized trajectories, shared by its producer
/// and every snapshot that includes it.
using TrajectoryBatch =
    std::shared_ptr<const std::vector<core::SemanticTrajectory>>;

/// \brief Multi-store view: a consistent set of sealed EventStore
/// segments plus an in-memory tail, queryable as if it were ONE
/// trajectory store.
///
/// The live ingest path (src/live/) appends finalized trajectories to
/// small rolling segments and compacts them in the background, so at
/// any instant the "store" is really several files at different
/// compaction levels plus a buffer of not-yet-sealed trajectories. A
/// StoreSet is an immutable snapshot of that state: shared readers keep
/// the mapped files alive even if the segment store unlinks them after
/// a later compaction (POSIX keeps the mapping valid), and the tail is
/// a list of shared immutable batches.
///
/// Canonical trajectory ids: segments persist *provisional* ids (the
/// order trajectories happened to finalize in); the batch pipeline
/// numbers trajectories in (object, start) order over the WHOLE
/// detection set. A trajectory's canonical id is `first_id` plus its
/// position in (object, start, source, ordinal) order, the tail being
/// the last source. CanonicalId computes it per emitted row from the
/// shared sealed ranks and the sorted tail keys; execution over a
/// StoreSet emits and sorts by these ids, which makes live + compacted
/// results byte-identical to a batch run over the same detections
/// (pinned by tests/live_equivalence_property_test.cc).
struct StoreSetSegment {
  /// Open reader of one sealed segment (kTrajectories). Shared: the
  /// snapshot outlives manifest churn in the producing segment store.
  std::shared_ptr<const EventStoreReader> reader;
};

struct StoreSet {
  std::vector<StoreSetSegment> segments;
  /// The unsealed tail; its ordinals run through the batches in order.
  std::vector<TrajectoryBatch> tail;
  TrajectoryId first_id;
  /// RankSegments over the segments' sorted keys.
  std::shared_ptr<const SealedRanks> ranks;
  /// The tail's keys, sorted.
  std::vector<TrajectoryKey> tail_keys;

  /// Assembles a set, sorting the tail's keys.
  static StoreSet Make(TrajectoryId first_id,
                       std::vector<StoreSetSegment> segments,
                       std::shared_ptr<const SealedRanks> ranks,
                       std::vector<TrajectoryBatch> tail);

  /// The canonical id of the trajectory keyed `key` — its object, its
  /// start, and its ordinal in `source` (a segment index, or
  /// segments.size() for the tail). Needs only the key, so a scan can
  /// ask without building the trajectory.
  TrajectoryId CanonicalId(std::size_t source, const TrajectoryKey& key) const;

  /// Trajectory count across segments and the tail.
  std::uint64_t TotalTrajectories() const;
  /// Tuple-row count across segments and the tail.
  std::uint64_t TotalRows() const;
  /// Block count across segments.
  std::uint64_t TotalBlocks() const;

  /// Structural invariants: every segment has an open reader, and the
  /// ranks cover exactly its stored trajectories.
  [[nodiscard]] Status Validate() const;
};

}  // namespace sitm::storage
