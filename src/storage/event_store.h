#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/task_runner.h"
#include "core/trajectory.h"
#include "storage/mapped_file.h"

namespace sitm::storage {

/// \brief EventStore: binary columnar persistence for the event-based
/// trajectory model (§3.3).
///
/// The SITM stores one tuple per cell/annotation *change*, not one per
/// tick — and the on-disk layout mirrors that: a store file is a
/// sequence of blocks, each holding one column per tuple field (object
/// id, cell id, start, duration, dictionary-encoded annotation sets),
/// with ids and timestamps delta-encoded as zigzag varints. Each block
/// carries a footer entry with its row count, min/max object id, and
/// min/max time, so readers prune whole blocks before touching their
/// bytes (predicate pushdown). The file ends in a checksummed footer
/// (annotation dictionary + block index) and a fixed trailer locating
/// it; the header pins magic, format version, and store kind (always
/// kTrajectories).
///
/// Layout (all integers little-endian; varints are LEB128, signed ones
/// zigzag-mapped — see storage/columnar.h):
///
///   header   : magic u64, version u32, kind u32
///   blocks   : column payloads, back to back: per trajectory its id,
///              object, A_traj and row count, then per row its cell,
///              transition, start, duration, A_i, transition
///              annotations and inferred flag
///   footer   : annotation dictionary + block index (offset, length,
///              rows, trajectories, min/max object, min/max time,
///              checksum per block) + length-framed sections
///   trailer  : footer offset u64, footer length u64, footer checksum
///              u64, trailing magic u64
///
/// Version history:
///   1 — base format: dictionary + block index only.
///   2 — appends an optional-sections area to the footer: varint section
///       count, then per section a varint kind, varint byte length, and
///       the payload. Unknown section kinds are skipped (length-framed),
///       so v2 readers stay forward-compatible with future sections.
///       Section kind 1 is the secondary object-id index: for each
///       distinct object id (ascending, delta-encoded) the posting list
///       of block indices holding its rows (ascending, delta-encoded).
///       Point lookups touch exactly those blocks instead of relying on
///       per-block min/max pruning.
///   3 — LZ-compressed blocks and annotation bitmaps. Every block
///       payload begins with the varint codec id 2 (kLzCodecId), then
///       the varint byte count of the v2 column layout, then an LZ77
///       stream of those column bytes (storage/columnar.h). Ids 0, 1
///       and 3 are reserved (retired codecs); they and any unknown id
///       are Corruption. Block checksums cover the
///       stored payload (codec id included). Section kind 2 holds the
///       annotation term table and per-block bitmaps: a term list of
///       every distinct (kind, value) annotation in the file
///       (ascending), then one bitmap per block whose bit t is set iff
///       some annotation set referenced by the block contains term t —
///       a sound over-approximation annotation predicates prune with.
///       Writers always emit the object index and, when the file has
///       any annotation, the bitmaps.
/// Writers emit version 3 only, and readers accept version 3 only (with
/// exactly one object-index section, and the bitmap section whenever the
/// dictionary holds an annotation): no code writes v1 or v2 any more,
/// so refusing them breaks no stored data, as with the retired codec ids.
/// The same holds for store kind 1, the retired per-detection layout:
/// every store holds trajectories, and Open refuses any other kind.
///
/// Corruption safety: every decode path is bounds-checked (Corruption,
/// never UB, on truncated or bit-flipped files), footer and blocks are
/// checksummed, and unknown versions/kinds/codecs are rejected. Forged
/// counts cannot drive a huge decode allocation: every row takes at
/// least one byte in each raw column, so a block's rows are bounded by
/// its declared decompressed size, and that size by kMaxBlockExpansion
/// times the payload.

/// Leading and trailing file magic ("SITMEVST" / "SITMTRLR" as bytes).
inline constexpr char kStoreMagic[8] = {'S', 'I', 'T', 'M',
                                        'E', 'V', 'S', 'T'};
inline constexpr char kTrailerMagic[8] = {'S', 'I', 'T', 'M',
                                          'T', 'R', 'L', 'R'};
/// The on-disk format version, the one writers emit and readers accept.
inline constexpr std::uint32_t kStoreVersion = 3;
/// Footer section kinds.
inline constexpr std::uint64_t kSectionObjectIndex = 1;
inline constexpr std::uint64_t kSectionAnnotationBitmaps = 2;
/// Byte size of the fixed file header (magic + version + kind).
inline constexpr std::size_t kStoreHeaderSize = 16;
/// Byte size of the fixed file trailer.
inline constexpr std::size_t kStoreTrailerSize = 32;

/// The codec id leading every v3 block payload: LZ over the v2 column
/// bytes. Any other id in a v3 block is Corruption.
inline constexpr std::uint64_t kLzCodecId = 2;

/// The most raw column bytes a v3 block may declare per payload byte.
/// LZ runs have no fixed expansion limit (a block of N identical rows
/// costs a few bytes per column whatever N is), so this is the reader's
/// allocation cap rather than a property of the codec: a default-size
/// block of 8192 identical 17-byte rows expands ~1,900-fold, and a
/// forged block can claim at most 8 KiB per payload byte.
inline constexpr std::uint64_t kMaxBlockExpansion = 8192;

/// What a store file holds, as the header records it. Only trajectory
/// stores remain; kind 1 (per-detection rows) is retired and refused.
enum class StoreKind : std::uint32_t {
  /// Rows are presence-interval tuples grouped into
  /// core::SemanticTrajectory values (id, object, A_traj + per-tuple
  /// transition, cell, interval, annotation sets, inferred flag).
  kTrajectories = 2,
};

/// Writer knobs.
struct WriterOptions {
  /// Target tuple rows per block. Trajectories never span blocks, so a
  /// block closes at the first trajectory boundary at or past this many
  /// rows (a single longer trajectory gets an oversized block). The
  /// default balances the LZ match window (bigger blocks compress
  /// better) against block-pruning granularity.
  std::size_t rows_per_block = 8192;
  /// Runner for parallel column encoding of large batches (borrowed;
  /// null encodes on the calling thread; entry points pass a
  /// sched::Executor). Output bytes are identical for every worker
  /// count: blocks are encoded independently and written in index
  /// order.
  TaskRunner* executor = nullptr;
};

/// Per-block index entry (also the unit of predicate pushdown).
struct BlockMeta {
  std::uint64_t offset = 0;  ///< payload start, absolute file offset
  std::uint64_t length = 0;  ///< payload bytes
  std::uint64_t rows = 0;    ///< tuple rows in the block
  std::uint64_t trajectories = 0;  ///< trajectories in the block
  std::int64_t min_object = 0;     ///< min/max raw object id in block
  std::int64_t max_object = 0;
  std::int64_t min_time = 0;  ///< earliest tuple start (epoch seconds)
  std::int64_t max_time = 0;  ///< latest tuple end (epoch seconds)
  std::uint64_t checksum = 0;  ///< FNV-1a 64 over the payload
};

/// Aggregate counters of a writer (available any time; `file_bytes` is
/// final only after Finish()).
struct StoreStats {
  std::uint64_t rows = 0;
  std::uint64_t trajectories = 0;
  std::uint64_t blocks = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t dictionary_entries = 0;
  std::uint64_t file_bytes = 0;
};

/// \brief Append-only columnar writer of trajectory stores, with
/// batched, parallel ingest.
///
/// Usage: Create -> Append (any number of trajectory batches, each split
/// into blocks and column-encoded — in parallel when an executor is
/// set) -> Finish (writes footer + trailer; the file is unreadable
/// before this).
class EventStoreWriter {
 public:
  /// `kind` must be StoreKind::kTrajectories (InvalidArgument otherwise).
  [[nodiscard]] static Result<EventStoreWriter> Create(const std::string& path,
                                         StoreKind kind,
                                         WriterOptions options = {});

  EventStoreWriter() = default;
  EventStoreWriter(EventStoreWriter&&) = default;
  EventStoreWriter& operator=(EventStoreWriter&&) = default;

  /// Appends built trajectories. Rejects trajectories with empty traces
  /// — untrusted readers must never produce them, so writers must never
  /// persist them.
  [[nodiscard]] Status Append(const std::vector<core::SemanticTrajectory>& trajectories);

  /// Writes footer + trailer and closes the file. Idempotent failure:
  /// after an error the writer is unusable.
  [[nodiscard]] Status Finish();

  const StoreStats& stats() const { return stats_; }

 private:
  [[nodiscard]] Status WriteRaw(std::string_view bytes);
  /// Registers an annotation set in the file dictionary, returning its
  /// index (stable across the file).
  std::uint32_t DictionaryId(const core::AnnotationSet& set);

  /// Closes the file on destruction; Finish closes it itself to check
  /// fclose's result.
  struct CloseFile {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  std::unique_ptr<std::FILE, CloseFile> file_;
  WriterOptions options_;
  std::uint64_t offset_ = 0;  // current end-of-file offset
  bool finished_ = false;
  std::vector<BlockMeta> blocks_;
  std::vector<std::string> dictionary_;  // serialized annotation sets
  /// The decoded sets, parallel to dictionary_ (feeds the v3
  /// annotation-bitmap section at Finish).
  std::vector<core::AnnotationSet> dictionary_sets_;
  std::unordered_map<std::string, std::uint32_t> dictionary_index_;
  /// DictionaryId's last answer and its encoding buffer.
  std::uint32_t last_dictionary_id_ = 0;
  std::string dictionary_scratch_;
  /// Secondary index under construction: object id -> ascending block
  /// indices (std::map so Finish emits objects in ascending order).
  std::map<std::int64_t, std::vector<std::uint32_t>> object_blocks_;
  /// Per-block sorted-unique dictionary ids (v3 annotation bitmaps).
  std::vector<std::vector<std::uint32_t>> block_dictionary_ids_;
  StoreStats stats_;
};

/// The closed-window rule every scan, footer and predicate shares: true
/// iff [start, end] intersects [min, max]. An unset bound is open, and
/// an inverted window (max < min) is empty, so it matches nothing, not
/// even a span that straddles it.
inline bool WindowIntersects(const std::optional<Timestamp>& min,
                             const std::optional<Timestamp>& max,
                             Timestamp start, Timestamp end) {
  if (min.has_value() && max.has_value() && *max < *min) return false;
  if (min.has_value() && end < *min) return false;
  if (max.has_value() && start > *max) return false;
  return true;
}

/// Predicate pushed down into a scan. Blocks whose footer stats cannot
/// match are skipped without reading their bytes; surviving blocks are
/// decoded and filtered trajectory-wise on the decoded columns — each
/// trajectory's object, its first row's start and its last row's end —
/// so only survivors reach the caller's visitor, and nothing is built on
/// the way. Filtering never skips validation: every row of every
/// trajectory in a decoded block is checked, kept or not, and a bad row
/// is Corruption whatever the scan.
///
/// Time-window semantics (WindowIntersects; pinned by tests at block
/// boundaries):
///  - the window [min_time, max_time] is CLOSED and both bounds are
///    INCLUSIVE: a row matches iff row.end >= min_time and
///    row.start <= max_time, so a tuple ending exactly at min_time or
///    starting exactly at max_time matches, and so does a block whose
///    footer max_time == min_time (single shared instant);
///  - an unset bound is open (no constraint on that side);
///  - an inverted window (max_time < min_time) denotes the EMPTY set and
///    matches no row and no block — it must never fall through to
///    span-straddling rows.
struct ScanOptions {
  /// Keep only these moving objects (empty = keep all). Must be sorted
  /// ascending and unique — row filtering binary-searches it, and
  /// CandidateBlocks unions the objects' posting lists in one pass.
  /// Multi-object pushdown: a planner with several admissible objects
  /// names them all here, so the store filters rows exactly instead of
  /// leaving a residual per-row object check to the caller.
  std::vector<ObjectId> objects;
  /// Keep only trajectories whose [start, end] intersects the closed
  /// window [min_time, max_time]; an unset bound is open.
  std::optional<Timestamp> min_time;
  std::optional<Timestamp> max_time;

  /// Scan of a single object (the common point lookup).
  static ScanOptions ForObject(ObjectId object) {
    ScanOptions scan;
    scan.objects.push_back(object);
    return scan;
  }

  /// True iff both bounds are set and inverted (the empty window).
  bool EmptyWindow() const {
    return min_time.has_value() && max_time.has_value() &&
           *max_time < *min_time;
  }
};

/// One trajectory of a trajectory block, seen through its decoded
/// columns (see ReadTrajectoryBlock). The columns hold one entry per
/// row, in order; they point into the decode buffer and live only for
/// the visit. Every row is already validated: its end does not overflow
/// and follows its start, and its dictionary indices are in range.
/// Tuple() and Build() are the one conversion from block columns to
/// model values; a caller that needs less reads the columns instead.
struct TrajectoryView {
  std::size_t position = 0;  ///< index in an unfiltered decode of the block
  TrajectoryId id;
  ObjectId object;
  Timestamp start;  ///< its first row's start
  Timestamp end;    ///< its last row's end
  std::size_t rows = 0;
  const std::int64_t* transitions = nullptr;  ///< boundary ids
  const std::int64_t* cells = nullptr;
  const std::int64_t* starts = nullptr;
  const std::uint64_t* durations = nullptr;  ///< end - start, in seconds
  const std::uint64_t* stay_dicts = nullptr;  ///< A_i, into *dictionary
  const std::uint64_t* transition_dicts = nullptr;  ///< into *dictionary
  std::vector<bool>::const_iterator inferred;  ///< inferred-tuple flags
  std::uint64_t dict = 0;  ///< A_traj, into *dictionary
  const std::vector<core::AnnotationSet>* dictionary = nullptr;

  CellId Cell(std::size_t r) const { return CellId(cells[r]); }
  Timestamp RowStart(std::size_t r) const { return Timestamp(starts[r]); }
  Timestamp RowEnd(std::size_t r) const {
    return Timestamp(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(starts[r]) + durations[r]));
  }
  Duration RowDuration(std::size_t r) const {
    return Duration(static_cast<std::int64_t>(durations[r]));
  }
  const core::AnnotationSet& Annotations() const {
    return (*dictionary)[static_cast<std::size_t>(dict)];
  }
  const core::AnnotationSet& StayAnnotations(std::size_t r) const {
    return (*dictionary)[static_cast<std::size_t>(stay_dicts[r])];
  }
  const core::AnnotationSet& TransitionAnnotations(std::size_t r) const {
    return (*dictionary)[static_cast<std::size_t>(transition_dicts[r])];
  }

  /// Row `r` as a presence-interval tuple.
  core::PresenceInterval Tuple(std::size_t r) const;
  /// The whole trajectory, as a full decode of the block yields it, but
  /// under `as` (`id` in a plain read; a store set renumbers).
  core::SemanticTrajectory Build(TrajectoryId as) const;
};

/// Called with each trajectory a block scan keeps, in block order.
using TrajectoryVisitor = std::function<void(const TrajectoryView&)>;

/// \brief Zero-copy reader: maps the file and decodes blocks on demand
/// straight out of the mapping.
class EventStoreReader {
 public:
  /// Opens and validates header, trailer, and footer (checksum, version,
  /// kind, block bounds, the one object index, the annotation bitmaps).
  /// Block payloads are only touched — and their checksums verified —
  /// when read.
  [[nodiscard]] static Result<EventStoreReader> Open(const std::string& path);

  std::size_t num_blocks() const { return blocks_.size(); }
  const BlockMeta& block(std::size_t i) const { return blocks_[i]; }
  const std::vector<BlockMeta>& blocks() const { return blocks_; }
  /// Total tuple rows across blocks.
  std::uint64_t rows() const { return rows_; }
  /// Total trajectories across blocks.
  std::uint64_t trajectories() const { return trajectories_; }
  std::uint64_t file_bytes() const { return file_.size(); }
  /// Decoded annotation dictionary.
  const std::vector<core::AnnotationSet>& dictionary() const {
    return dictionary_;
  }

  /// True when the file carries the annotation-bitmap section, which it
  /// does exactly when its dictionary holds some annotation (Open
  /// refuses a file with annotations and no bitmaps).
  bool has_annotation_bitmaps() const { return !annotation_terms_.empty(); }
  /// Footer checksum from the trailer. Finished stores are immutable,
  /// so this (with file_bytes) identifies the file's entire contents —
  /// the store half of a query-result cache key.
  std::uint64_t trailer_checksum() const { return trailer_checksum_; }

  /// \brief Bitmap pruning for annotation predicates: false only when
  /// the annotation bitmaps prove no annotation set referenced by block
  /// `i` contains `kind:value` — in particular false for every block
  /// when the term appears nowhere in the file, and so for every term
  /// of a file without annotations (it has no bitmaps, and Open
  /// guarantees it has none to have). True for an out-of-range `i`.
  bool BlockMayContainAnnotation(std::size_t i, core::AnnotationKind kind,
                                 std::string_view value) const;

  /// Footer-stats pruning: false when block `i` cannot contain a match.
  bool BlockMatches(std::size_t i, const ScanOptions& scan) const;

  /// Blocks a scan must touch, ascending: when the scan names objects,
  /// exactly the union of their posting lists in the object index;
  /// otherwise every block — in both cases filtered by BlockMatches
  /// footer stats. This is the block set the full scans below iterate,
  /// exposed so external executors can stream it.
  std::vector<std::size_t> CandidateBlocks(const ScanOptions& scan) const;

  /// Full scan (all blocks, with pushdown).
  [[nodiscard]] Result<std::vector<core::SemanticTrajectory>> ReadTrajectories(
      const ScanOptions& scan = {}) const;

  /// Block-wise scan, so callers stream block by block without
  /// materializing the whole store. ReadTrajectoryBlock decodes block
  /// `i`, validates every row of every trajectory (kept or not), then
  /// calls `visit` with each trajectory the scan keeps, in block order;
  /// nothing is built unless the visitor calls TrajectoryView::Build or
  /// Tuple. A visited view's `position` lines it up with per-trajectory
  /// ordinals. A faulty row is Corruption whatever the scan keeps, with
  /// the same message; trajectories ahead of it in the block may already
  /// have been visited, so callers drop what a failed block produced.
  [[nodiscard]] Status ReadTrajectoryBlock(std::size_t i,
                                           const ScanOptions& scan,
                                           const TrajectoryVisitor& visit) const;

  /// Verifies every block checksum (footer integrity is already checked
  /// at Open) without decoding columns.
  [[nodiscard]] Status VerifyChecksums() const;

 private:
  [[nodiscard]] Result<std::string_view> BlockPayload(std::size_t i) const;
  /// The step from block index to checked column bytes: checks the
  /// index, answers nullopt for a block the scan's footer stats rule
  /// out, then verifies the checksum and decompresses under the block's
  /// allocation cap.
  [[nodiscard]] Result<std::optional<std::string>> DecodeBlock(
      std::size_t i, const ScanOptions& scan) const;

  MappedFile file_;
  std::uint64_t trailer_checksum_ = 0;
  std::vector<BlockMeta> blocks_;
  std::vector<core::AnnotationSet> dictionary_;
  /// Secondary index: object id -> ascending block indices.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> object_index_;
  /// Annotation bitmaps: the term table, ascending by (kind, value),
  /// and one bitmap of annotation_terms_.size() bits per block (flat,
  /// bytes_per_bitmap bytes each, LSB first).
  std::vector<std::pair<core::AnnotationKind, std::string>> annotation_terms_;
  std::vector<std::uint8_t> annotation_bitmaps_;
  std::uint64_t rows_ = 0;
  std::uint64_t trajectories_ = 0;
};

}  // namespace sitm::storage

