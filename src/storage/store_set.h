#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "core/trajectory.h"
#include "storage/event_store.h"

namespace sitm::storage {

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
/// a later compaction (POSIX keeps the mapping valid), and `extra`
/// carries the tail by value.
///
/// Canonical trajectory ids: segments persist *provisional* ids (the
/// order trajectories happened to finalize in), which is unknowable
/// online — the batch pipeline assigns ids sequentially in (object,
/// start time) order over the WHOLE detection set. The snapshot closes
/// that gap: `canonical_ids[ordinal]` maps each trajectory's physical
/// position in its segment to the id the batch pipeline would have
/// assigned, computed from the global (object, start) rank at snapshot
/// time. Query execution over a StoreSet substitutes these ids and
/// sorts by them, which is exactly what makes live + compacted query
/// results byte-identical to a batch run over the same detections
/// (pinned by tests/live_equivalence_property_test.cc).
struct StoreSetSegment {
  /// Open reader of one sealed segment (kTrajectories). Shared: the
  /// snapshot outlives manifest churn in the producing segment store.
  std::shared_ptr<const EventStoreReader> reader;
  /// Canonical trajectory id per trajectory ordinal, where ordinal is
  /// the trajectory's physical position in the file (block order, then
  /// position within the block). Size must equal reader->trajectories().
  std::vector<TrajectoryId> canonical_ids;
};

struct StoreSet {
  std::vector<StoreSetSegment> segments;
  /// Finalized-but-unsealed trajectories (the live tail), canonical ids
  /// already substituted. Owned by value: the producer may seal or drop
  /// its buffer after the snapshot.
  std::vector<core::SemanticTrajectory> extra;

  /// Trajectory count across segments and the tail.
  std::uint64_t TotalTrajectories() const;
  /// Tuple-row count across segments and the tail.
  std::uint64_t TotalRows() const;
  /// Block count across segments.
  std::uint64_t TotalBlocks() const;

  /// Structural invariants: every segment has an open kTrajectories
  /// reader and exactly one canonical id per stored trajectory.
  [[nodiscard]] Status Validate() const;
};

/// Trajectory-ordinal offset of every block of `reader` (exclusive
/// prefix sums of per-block trajectory counts): the trajectory decoded
/// at position i of block b has ordinal `starts[b] + i`. This is what
/// lets a reader line decoded trajectories up with
/// StoreSetSegment::canonical_ids — with the positions
/// ReadTrajectoryBlock reports when its scan filters the block.
std::vector<std::uint64_t> BlockTrajectoryStarts(const EventStoreReader& reader);

/// \brief Rolling-segment file naming: "seg-L<level>-<sequence>.evst",
/// e.g. "seg-L0-000042.evst". Level counts compaction generations
/// (fresh seals are L0; each merge bumps it); the sequence number is
/// store-global and strictly increasing, so names never collide and a
/// directory listing sorts in creation order within a level.
struct SegmentName {
  int level = 0;
  std::uint64_t sequence = 0;
};

/// Formats a segment file name (zero-padded sequence, ".evst" suffix).
std::string FormatSegmentName(const SegmentName& name);

/// Parses a segment file name; nullopt when `filename` is not of the
/// form FormatSegmentName produces (any zero-padding width accepted).
std::optional<SegmentName> ParseSegmentName(std::string_view filename);

}  // namespace sitm::storage
