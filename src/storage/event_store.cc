#include "storage/event_store.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "storage/columnar.h"

namespace sitm::storage {

namespace {

/// Serializes an annotation set into `out` (replacing its contents):
/// varint count, then per annotation varint
/// kind + varint byte length + value bytes. Canonical because
/// AnnotationSet keeps its contents sorted and unique.
void EncodeAnnotationSet(const core::AnnotationSet& set, std::string& out) {
  out.clear();
  PutVarint64(out, set.size());
  for (const core::SemanticAnnotation& a : set.annotations()) {
    PutVarint64(out, static_cast<std::uint64_t>(a.kind));
    PutVarint64(out, a.value.size());
    out += a.value;
  }
}

Result<core::AnnotationSet> DecodeAnnotationSet(ByteReader& reader) {
  SITM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadVarint64());
  if (count > reader.remaining()) {
    return Status::Corruption("EventStore: annotation set claims " +
                              std::to_string(count) + " entries with only " +
                              std::to_string(reader.remaining()) +
                              " bytes left");
  }
  core::AnnotationSet set;
  for (std::uint64_t i = 0; i < count; ++i) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t kind, reader.ReadVarint64());
    if (kind > static_cast<std::uint64_t>(core::AnnotationKind::kOther)) {
      return Status::Corruption("EventStore: unknown annotation kind " +
                                std::to_string(kind));
    }
    SITM_ASSIGN_OR_RETURN(const std::uint64_t length, reader.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(const std::string_view value,
                          reader.ReadBytes(length));
    set.Add(static_cast<core::AnnotationKind>(kind), std::string(value));
  }
  return set;
}

std::vector<std::int64_t> SortedUnique(std::vector<std::int64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

void FoldRowStats(BlockMeta& meta, bool first, std::int64_t object,
                  std::int64_t start, std::int64_t end) {
  if (first) {
    meta.min_object = meta.max_object = object;
    meta.min_time = start;
    meta.max_time = end;
    return;
  }
  meta.min_object = std::min(meta.min_object, object);
  meta.max_object = std::max(meta.max_object, object);
  meta.min_time = std::min(meta.min_time, start);
  meta.max_time = std::max(meta.max_time, end);
}

/// Converts an unsigned on-disk duration back to an end timestamp,
/// rejecting values that would overflow signed time arithmetic (false;
/// see DurationOverflow). All arithmetic is unsigned (wrap-defined):
/// `start` is untrusted and may be any int64, including negative. No
/// Status on the success path: this runs once per decoded row.
bool EndFromDuration(std::int64_t start, std::uint64_t duration,
                     std::int64_t* end) {
  // INT64_MAX - start, computed mod 2^64: exact for every start, and
  // the mathematical value always fits in uint64.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) -
      static_cast<std::uint64_t>(start);
  if (duration > limit) return false;
  *end = static_cast<std::int64_t>(static_cast<std::uint64_t>(start) +
                                   duration);
  return true;
}

Status DurationOverflow() {
  return Status::Corruption("EventStore: duration overflows the epoch");
}

/// Strips the codec framing from a block payload and returns its column
/// bytes. `max_raw_size` caps the decompressed allocation a forged size
/// field could demand — the caller derives it from the block's row and
/// trajectory counts — and so does kMaxBlockExpansion times the
/// payload. Every one of the block's `rows` takes at least one byte in
/// each raw column, so the declared size bounds them in turn.
Result<std::string> DecodeBlockPayload(std::string_view payload,
                                       std::uint64_t max_raw_size,
                                       std::uint64_t rows,
                                       std::size_t block_index) {
  ByteReader reader(payload);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t codec_id, reader.ReadVarint64());
  if (codec_id != kLzCodecId) {
    return Status::Corruption("EventStore: unsupported block codec " +
                              std::to_string(codec_id) + " in block " +
                              std::to_string(block_index));
  }
  SITM_ASSIGN_OR_RETURN(const std::uint64_t raw_size, reader.ReadVarint64());
  if (raw_size > max_raw_size ||
      raw_size > payload.size() * kMaxBlockExpansion) {
    return Status::Corruption(
        "EventStore: block " + std::to_string(block_index) +
        " claims an implausible decompressed size " +
        std::to_string(raw_size));
  }
  if (rows > raw_size) {
    return Status::Corruption("EventStore: block " +
                              std::to_string(block_index) +
                              " row count exceeds its column bytes");
  }
  SITM_ASSIGN_OR_RETURN(const std::string_view compressed,
                        reader.ReadBytes(reader.remaining()));
  Result<std::string> decompressed =
      DecompressBytes(compressed, static_cast<std::size_t>(raw_size));
  if (!decompressed.ok()) {
    return decompressed.status().WithContext("EventStore: block " +
                                             std::to_string(block_index));
  }
  return decompressed;
}

bool RowMatches(const ScanOptions& scan, ObjectId object, Timestamp start,
                Timestamp end) {
  if (!scan.objects.empty() &&
      !std::binary_search(scan.objects.begin(), scan.objects.end(), object)) {
    return false;
  }
  return WindowIntersects(scan.min_time, scan.max_time, start, end);
}

/// One encoded block, ready to be written.
struct EncodedBlock {
  std::string payload;
  BlockMeta meta;  ///< offset is set when the block is committed
  /// Distinct raw object ids in the block, ascending (feeds the
  /// secondary object-id index).
  std::vector<std::int64_t> objects;
  /// Distinct dictionary ids referenced by the block, ascending (feeds
  /// the annotation bitmaps).
  std::vector<std::uint32_t> dictionary_ids;

  /// Frames `columns` as the block payload — the codec id, the column
  /// byte count, then the LZ stream of the columns — and records its
  /// length and checksum.
  void SetPayload(std::string_view columns) {
    PutVarint64(payload, kLzCodecId);
    PutVarint64(payload, columns.size());
    payload += CompressBytes(columns);
    meta.length = payload.size();
    meta.checksum = Checksum(payload);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Result<EventStoreWriter> EventStoreWriter::Create(const std::string& path,
                                                  StoreKind kind,
                                                  WriterOptions options) {
  if (kind != StoreKind::kTrajectories) {
    return Status::InvalidArgument("EventStore: unknown store kind");
  }
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("EventStore: rows_per_block must be >= 1");
  }
  EventStoreWriter writer;
  writer.file_.reset(std::fopen(path.c_str(), "wb"));
  if (writer.file_ == nullptr) {
    return Status::IOError("EventStore: cannot open '" + path +
                           "' for writing");
  }
  writer.options_ = options;
  std::string header(kStoreMagic, sizeof(kStoreMagic));
  PutU32(header, kStoreVersion);
  PutU32(header, static_cast<std::uint32_t>(kind));
  SITM_RETURN_IF_ERROR(writer.WriteRaw(header));
  return writer;
}

Status EventStoreWriter::WriteRaw(std::string_view bytes) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EventStore: writer is closed");
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
      bytes.size()) {
    return Status::IOError("EventStore: write failed at offset " +
                           std::to_string(offset_));
  }
  offset_ += bytes.size();
  return Status::OK();
}

std::uint32_t EventStoreWriter::DictionaryId(const core::AnnotationSet& set) {
  EncodeAnnotationSet(set, dictionary_scratch_);
  // Rows repeat their neighbours' sets, so the last answer usually
  // stands without a hash lookup.
  if (last_dictionary_id_ < dictionary_.size() &&
      dictionary_[last_dictionary_id_] == dictionary_scratch_) {
    return last_dictionary_id_;
  }
  const auto it = dictionary_index_.find(dictionary_scratch_);
  if (it != dictionary_index_.end()) return last_dictionary_id_ = it->second;
  const auto id = static_cast<std::uint32_t>(dictionary_.size());
  dictionary_index_.emplace(dictionary_scratch_, id);
  dictionary_.push_back(dictionary_scratch_);
  dictionary_sets_.push_back(set);
  stats_.dictionary_entries = dictionary_.size();
  return last_dictionary_id_ = id;
}

Status EventStoreWriter::Append(
    const std::vector<core::SemanticTrajectory>& trajectories) {
  if (finished_) {
    return Status::FailedPrecondition("EventStore: writer already finished");
  }
  if (trajectories.empty()) return Status::OK();

  // Flatten the batch into column vectors (and assign dictionary ids —
  // inherently sequential: ids must be stable in first-seen order).
  const std::size_t num_trajectories = trajectories.size();
  std::vector<std::int64_t> traj_ids, traj_objects;
  std::vector<std::uint64_t> traj_dicts, traj_rows;
  std::vector<std::int64_t> cells, transitions, starts;
  std::vector<std::uint64_t> durations, stay_dicts, transition_dicts;
  std::vector<bool> inferred;
  traj_ids.reserve(num_trajectories);
  traj_objects.reserve(num_trajectories);
  traj_dicts.reserve(num_trajectories);
  traj_rows.reserve(num_trajectories);
  std::size_t num_rows = 0;
  for (const core::SemanticTrajectory& t : trajectories) {
    num_rows += t.trace().size();
  }
  cells.reserve(num_rows);
  transitions.reserve(num_rows);
  starts.reserve(num_rows);
  durations.reserve(num_rows);
  stay_dicts.reserve(num_rows);
  transition_dicts.reserve(num_rows);
  inferred.reserve(num_rows);
  for (const core::SemanticTrajectory& t : trajectories) {
    // Checked accessor: an empty trace must never reach the disk, or
    // readers could not reconstruct the trajectory's bounds.
    if (const Result<Timestamp> start = t.trace().StartTime(); !start.ok()) {
      return start.status().WithContext(
          "EventStore: refusing to append trajectory #" +
          std::to_string(t.id().value()));
    }
    traj_ids.push_back(t.id().value());
    traj_objects.push_back(t.object().value());
    traj_dicts.push_back(DictionaryId(t.annotations()));
    traj_rows.push_back(t.trace().size());
    for (const core::PresenceInterval& p : t.trace().intervals()) {
      const std::int64_t duration = (p.end() - p.start()).seconds();
      if (duration < 0) {
        return Status::InvalidArgument(
            "EventStore: presence interval with end before start");
      }
      cells.push_back(p.cell.value());
      transitions.push_back(p.transition.value());
      starts.push_back(p.start().seconds_since_epoch());
      durations.push_back(static_cast<std::uint64_t>(duration));
      stay_dicts.push_back(DictionaryId(p.annotations));
      transition_dicts.push_back(DictionaryId(p.transition_annotations));
      inferred.push_back(p.inferred);
    }
  }

  // Block boundaries: close at the first trajectory boundary at or past
  // rows_per_block rows. (trajectory begin index, row begin index).
  struct BlockRange {
    std::size_t traj_begin, traj_end;
    std::size_t row_begin, row_end;
  };
  std::vector<BlockRange> ranges;
  std::size_t traj_cursor = 0, row_cursor = 0;
  while (traj_cursor < num_trajectories) {
    BlockRange range{traj_cursor, traj_cursor, row_cursor, row_cursor};
    while (range.traj_end < num_trajectories &&
           range.row_end - range.row_begin < options_.rows_per_block) {
      range.row_end += static_cast<std::size_t>(traj_rows[range.traj_end]);
      range.traj_end += 1;
    }
    ranges.push_back(range);
    traj_cursor = range.traj_end;
    row_cursor = range.row_end;
  }

  // Thread-safety: each task encodes one block of the (read-only) batch
  // into its own EncodedBlock slot; the file is written sequentially
  // afterwards, so bytes on disk are identical at every worker count.
  auto encode = [&](std::size_t b) {
    const BlockRange& range = ranges[b];
    EncodedBlock block;
    const std::size_t t0 = range.traj_begin, nt = range.traj_end - t0;
    const std::size_t r0 = range.row_begin, nr = range.row_end - r0;
    std::string columns;
    PutDeltaColumn(columns, traj_ids.data() + t0, nt);
    PutDeltaColumn(columns, traj_objects.data() + t0, nt);
    PutVarintColumn(columns, traj_dicts.data() + t0, nt);
    PutVarintColumn(columns, traj_rows.data() + t0, nt);
    PutDeltaColumn(columns, cells.data() + r0, nr);
    for (std::size_t i = range.row_begin; i < range.row_end; ++i) {
      PutSVarint64(columns, transitions[i]);
    }
    PutDeltaColumn(columns, starts.data() + r0, nr);
    PutVarintColumn(columns, durations.data() + r0, nr);
    PutVarintColumn(columns, stay_dicts.data() + r0, nr);
    PutVarintColumn(columns, transition_dicts.data() + r0, nr);
    PutBitColumn(columns, inferred, range.row_begin, range.row_end);
    block.SetPayload(columns);
    {
      std::vector<std::uint32_t> ids;
      for (std::size_t t = range.traj_begin; t < range.traj_end; ++t) {
        ids.push_back(static_cast<std::uint32_t>(traj_dicts[t]));
      }
      for (std::size_t r = range.row_begin; r < range.row_end; ++r) {
        ids.push_back(static_cast<std::uint32_t>(stay_dicts[r]));
        ids.push_back(static_cast<std::uint32_t>(transition_dicts[r]));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      block.dictionary_ids = std::move(ids);
    }
    bool first = true;
    for (std::size_t t = range.traj_begin; t < range.traj_end; ++t) {
      const core::Trace& trace = trajectories[t].trace();
      for (const core::PresenceInterval& p : trace.intervals()) {
        FoldRowStats(block.meta, first, traj_objects[t],
                     p.start().seconds_since_epoch(),
                     p.end().seconds_since_epoch());
        first = false;
      }
    }
    block.meta.rows = range.row_end - range.row_begin;
    block.meta.trajectories = range.traj_end - range.traj_begin;
    block.objects = SortedUnique(std::vector<std::int64_t>(
        traj_objects.begin() + static_cast<std::ptrdiff_t>(t0),
        traj_objects.begin() + static_cast<std::ptrdiff_t>(t0 + nt)));
    return block;
  };
  std::vector<EncodedBlock> encoded = ParallelMap<EncodedBlock>(
      options_.executor, ranges.size(), encode, /*grain=*/0, "store/encode");
  for (EncodedBlock& block : encoded) {
    block.meta.offset = offset_;
    SITM_RETURN_IF_ERROR(WriteRaw(block.payload));
    const auto block_index = static_cast<std::uint32_t>(blocks_.size());
    for (std::int64_t object : block.objects) {
      object_blocks_[object].push_back(block_index);
    }
    stats_.rows += block.meta.rows;
    stats_.trajectories += block.meta.trajectories;
    stats_.blocks += 1;
    stats_.payload_bytes += block.meta.length;
    blocks_.push_back(block.meta);
    block_dictionary_ids_.push_back(std::move(block.dictionary_ids));
  }
  return Status::OK();
}

Status EventStoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("EventStore: Finish called twice");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EventStore: writer is closed");
  }
  const std::uint64_t footer_offset = offset_;
  std::string footer;
  PutVarint64(footer, dictionary_.size());
  for (const std::string& entry : dictionary_) footer += entry;
  PutVarint64(footer, blocks_.size());
  for (const BlockMeta& meta : blocks_) {
    PutVarint64(footer, meta.offset);
    PutVarint64(footer, meta.length);
    PutVarint64(footer, meta.rows);
    PutVarint64(footer, meta.trajectories);
    PutSVarint64(footer, meta.min_object);
    PutSVarint64(footer, meta.max_object);
    PutSVarint64(footer, meta.min_time);
    PutSVarint64(footer, meta.max_time);
    PutU64(footer, meta.checksum);
  }
  // Optional sections: count, then (kind, byte length, payload) per
  // section. Length framing lets readers skip unknown kinds. The object
  // index is always written; the annotation bitmaps whenever the file
  // holds any annotation.
  std::vector<std::pair<std::uint64_t, std::string>> sections;
  {
    std::string section;
    PutVarint64(section, object_blocks_.size());
    std::int64_t prev_object = 0;
    for (const auto& [object, block_list] : object_blocks_) {
      PutSVarint64(section, object - prev_object);
      prev_object = object;
      PutVarint64(section, block_list.size());
      std::uint32_t prev_block = 0;
      for (std::uint32_t b : block_list) {
        PutVarint64(section, b - prev_block);
        prev_block = b;
      }
    }
    sections.emplace_back(kSectionObjectIndex, std::move(section));
  }
  {
    // Term table: every distinct (kind, value) across the dictionary,
    // sorted ascending; per block one bit per term, set when the term
    // appears in a dictionary set the block references. Readers prune a
    // block for an annotation predicate when its bit is clear — sound
    // because trajectories never span blocks.
    std::vector<std::pair<std::uint64_t, std::string>> terms;
    for (const core::AnnotationSet& set : dictionary_sets_) {
      for (const core::SemanticAnnotation& a : set.annotations()) {
        terms.emplace_back(static_cast<std::uint64_t>(a.kind), a.value);
      }
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    if (!terms.empty()) {
      std::string section;
      PutVarint64(section, terms.size());
      for (const auto& [kind, value] : terms) {
        PutVarint64(section, kind);
        PutVarint64(section, value.size());
        section += value;
      }
      PutVarint64(section, blocks_.size());
      const std::size_t bytes_per_bitmap = (terms.size() + 7) / 8;
      for (const std::vector<std::uint32_t>& dict_ids :
           block_dictionary_ids_) {
        std::string bitmap(bytes_per_bitmap, '\0');
        for (std::uint32_t id : dict_ids) {
          for (const core::SemanticAnnotation& a :
               dictionary_sets_[id].annotations()) {
            const auto it = std::lower_bound(
                terms.begin(), terms.end(),
                std::make_pair(static_cast<std::uint64_t>(a.kind), a.value));
            const auto term = static_cast<std::size_t>(it - terms.begin());
            bitmap[term / 8] = static_cast<char>(
                static_cast<unsigned char>(bitmap[term / 8]) |
                (1u << (term % 8)));
          }
        }
        section += bitmap;
      }
      sections.emplace_back(kSectionAnnotationBitmaps, std::move(section));
    }
  }
  PutVarint64(footer, sections.size());
  for (const auto& [section_kind, section] : sections) {
    PutVarint64(footer, section_kind);
    PutVarint64(footer, section.size());
    footer += section;
  }
  SITM_RETURN_IF_ERROR(WriteRaw(footer));
  std::string trailer;
  PutU64(trailer, footer_offset);
  PutU64(trailer, footer.size());
  PutU64(trailer, Checksum(footer));
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
  SITM_RETURN_IF_ERROR(WriteRaw(trailer));
  finished_ = true;
  stats_.file_bytes = offset_;
  const int rc = std::fclose(file_.release());
  if (rc != 0) return Status::IOError("EventStore: close failed");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

core::PresenceInterval TrajectoryView::Tuple(std::size_t r) const {
  // Validated at decode: the end cannot overflow and follows the start.
  const auto interval = qsr::TimeInterval::Make(RowStart(r), RowEnd(r));
  core::PresenceInterval tuple(BoundaryId(transitions[r]), Cell(r), *interval,
                               StayAnnotations(r));
  tuple.transition_annotations = TransitionAnnotations(r);
  tuple.inferred = inferred[static_cast<std::ptrdiff_t>(r)];
  return tuple;
}

core::SemanticTrajectory TrajectoryView::Build(TrajectoryId as) const {
  std::vector<core::PresenceInterval> intervals;
  intervals.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) intervals.push_back(Tuple(r));
  return core::SemanticTrajectory(as, object, core::Trace(std::move(intervals)),
                                  Annotations());
}

Result<EventStoreReader> EventStoreReader::Open(const std::string& path) {
  EventStoreReader reader;
  SITM_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path));
  const std::string_view file = reader.file_.view();
  if (file.size() < kStoreHeaderSize + kStoreTrailerSize) {
    return Status::Corruption("EventStore: '" + path +
                              "' is too short to be a store file");
  }
  if (std::memcmp(file.data(), kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::Corruption("EventStore: bad magic in '" + path + "'");
  }
  ByteReader header(file.data() + sizeof(kStoreMagic),
                    kStoreHeaderSize - sizeof(kStoreMagic));
  SITM_ASSIGN_OR_RETURN(const std::uint32_t version, header.ReadU32());
  if (version != kStoreVersion) {
    return Status::Corruption("EventStore: unsupported format version " +
                              std::to_string(version));
  }
  SITM_ASSIGN_OR_RETURN(const std::uint32_t kind, header.ReadU32());
  if (kind != static_cast<std::uint32_t>(StoreKind::kTrajectories)) {
    return Status::Corruption("EventStore: unknown store kind " +
                              std::to_string(kind));
  }

  ByteReader trailer(file.data() + file.size() - kStoreTrailerSize,
                     kStoreTrailerSize);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_offset, trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_length, trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_checksum,
                        trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::string_view trailer_magic,
                        trailer.ReadBytes(sizeof(kTrailerMagic)));
  if (std::memcmp(trailer_magic.data(), kTrailerMagic,
                  sizeof(kTrailerMagic)) != 0) {
    return Status::Corruption(
        "EventStore: missing trailer (truncated or unfinished file)");
  }
  const std::uint64_t payload_end = file.size() - kStoreTrailerSize;
  if (footer_offset < kStoreHeaderSize || footer_offset > payload_end ||
      footer_length > payload_end - footer_offset ||
      footer_offset + footer_length != payload_end) {
    return Status::Corruption("EventStore: footer bounds out of range");
  }
  const std::string_view footer_bytes =
      file.substr(footer_offset, footer_length);
  if (Checksum(footer_bytes) != footer_checksum) {
    return Status::Corruption("EventStore: footer checksum mismatch");
  }
  // The footer checksum covers the dictionary and the full block index
  // (which itself carries every block checksum), so it uniquely
  // identifies the finished file's contents — callers use it as a
  // cache key for query results over this store.
  reader.trailer_checksum_ = footer_checksum;

  ByteReader footer(footer_bytes);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t dict_count, footer.ReadVarint64());
  if (dict_count > footer.remaining()) {
    return Status::Corruption("EventStore: dictionary count out of range");
  }
  reader.dictionary_.reserve(dict_count);
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    SITM_ASSIGN_OR_RETURN(core::AnnotationSet set, DecodeAnnotationSet(footer));
    reader.dictionary_.push_back(std::move(set));
  }
  SITM_ASSIGN_OR_RETURN(const std::uint64_t num_blocks, footer.ReadVarint64());
  if (num_blocks > footer.remaining()) {
    return Status::Corruption("EventStore: block count out of range");
  }
  reader.blocks_.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    BlockMeta meta;
    SITM_ASSIGN_OR_RETURN(meta.offset, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.length, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.rows, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.trajectories, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.min_object, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.max_object, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.min_time, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.max_time, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.checksum, footer.ReadU64());
    if (meta.offset < kStoreHeaderSize || meta.offset > footer_offset ||
        meta.length > footer_offset - meta.offset) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " bounds out of range");
    }
    // Every row occupies at least one byte in each of its raw columns,
    // which take at most kMaxBlockExpansion bytes per payload byte
    // behind the LZ (decode checks the declared size exactly). A forged
    // row count beyond that cannot be honest — reject it here rather
    // than letting decode attempt a giant allocation.
    if (meta.rows > meta.length * kMaxBlockExpansion) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " row count exceeds payload size");
    }
    if (meta.trajectories > meta.rows) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " has more trajectories than rows");
    }
    reader.rows_ += meta.rows;
    reader.trajectories_ += meta.trajectories;
    reader.blocks_.push_back(meta);
  }
  // Length-framed sections. Unknown kinds are skipped so files written
  // by future minor revisions stay readable; the object index must be
  // there exactly once, since every writer emits it.
  bool seen_object_index = false;
  SITM_ASSIGN_OR_RETURN(const std::uint64_t num_sections,
                        footer.ReadVarint64());
  if (num_sections > footer.remaining()) {
    return Status::Corruption("EventStore: section count out of range");
  }
  for (std::uint64_t s = 0; s < num_sections; ++s) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t section_kind,
                          footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(const std::uint64_t section_length,
                          footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(const std::string_view section_bytes,
                          footer.ReadBytes(section_length));
    if (section_kind == kSectionAnnotationBitmaps) {
      if (!reader.annotation_terms_.empty()) {
        return Status::Corruption(
            "EventStore: duplicate annotation bitmap section");
      }
      ByteReader section(section_bytes);
      SITM_ASSIGN_OR_RETURN(const std::uint64_t num_terms,
                            section.ReadVarint64());
      // Every term occupies at least two bytes (kind + length), so a
      // count beyond the remaining bytes is forged.
      if (num_terms == 0 || num_terms > section.remaining()) {
        return Status::Corruption(
            "EventStore: annotation term count out of range");
      }
      std::vector<std::pair<core::AnnotationKind, std::string>> terms;
      terms.reserve(num_terms);
      for (std::uint64_t t = 0; t < num_terms; ++t) {
        SITM_ASSIGN_OR_RETURN(const std::uint64_t term_kind,
                              section.ReadVarint64());
        if (term_kind >
            static_cast<std::uint64_t>(core::AnnotationKind::kOther)) {
          return Status::Corruption(
              "EventStore: unknown annotation kind in term table");
        }
        SITM_ASSIGN_OR_RETURN(const std::uint64_t value_length,
                              section.ReadVarint64());
        SITM_ASSIGN_OR_RETURN(const std::string_view value,
                              section.ReadBytes(value_length));
        std::pair<core::AnnotationKind, std::string> term(
            static_cast<core::AnnotationKind>(term_kind), std::string(value));
        if (!terms.empty() && terms.back() >= term) {
          return Status::Corruption(
              "EventStore: annotation terms not strictly ascending");
        }
        terms.push_back(std::move(term));
      }
      SITM_ASSIGN_OR_RETURN(const std::uint64_t bitmap_blocks,
                            section.ReadVarint64());
      if (bitmap_blocks != reader.blocks_.size()) {
        return Status::Corruption(
            "EventStore: annotation bitmap block count mismatch");
      }
      const std::size_t bytes_per_bitmap = (terms.size() + 7) / 8;
      if (section.remaining() != bitmap_blocks * bytes_per_bitmap) {
        return Status::Corruption(
            "EventStore: annotation bitmap section size mismatch");
      }
      SITM_ASSIGN_OR_RETURN(const std::string_view bitmap_bytes,
                            section.ReadBytes(section.remaining()));
      reader.annotation_terms_ = std::move(terms);
      reader.annotation_bitmaps_.assign(bitmap_bytes.begin(),
                                        bitmap_bytes.end());
      continue;
    }
    if (section_kind != kSectionObjectIndex) continue;
    if (seen_object_index) {
      return Status::Corruption("EventStore: duplicate object index");
    }
    ByteReader section(section_bytes);
    SITM_ASSIGN_OR_RETURN(const std::uint64_t num_objects,
                          section.ReadVarint64());
    // Every object entry occupies at least two bytes (id delta +
    // posting count), so a count beyond the remaining bytes is forged.
    if (num_objects > section.remaining()) {
      return Status::Corruption("EventStore: object index count out of range");
    }
    std::int64_t object = 0;
    bool first_object = true;
    for (std::uint64_t o = 0; o < num_objects; ++o) {
      SITM_ASSIGN_OR_RETURN(const std::int64_t delta, section.ReadSVarint64());
      if (!first_object && delta <= 0) {
        return Status::Corruption(
            "EventStore: object index ids not strictly ascending");
      }
      object += delta;
      first_object = false;
      SITM_ASSIGN_OR_RETURN(const std::uint64_t num_postings,
                            section.ReadVarint64());
      if (num_postings == 0 || num_postings > reader.blocks_.size()) {
        return Status::Corruption(
            "EventStore: object posting list size out of range");
      }
      std::vector<std::uint32_t> postings;
      postings.reserve(num_postings);
      std::uint64_t block = 0;
      for (std::uint64_t p = 0; p < num_postings; ++p) {
        SITM_ASSIGN_OR_RETURN(const std::uint64_t block_delta,
                              section.ReadVarint64());
        if (p > 0 && block_delta == 0) {
          return Status::Corruption(
              "EventStore: object postings not strictly ascending");
        }
        block += block_delta;
        if (block >= reader.blocks_.size()) {
          return Status::Corruption(
              "EventStore: object posting names block " +
              std::to_string(block) + " of " +
              std::to_string(reader.blocks_.size()));
        }
        postings.push_back(static_cast<std::uint32_t>(block));
      }
      reader.object_index_.emplace(object, std::move(postings));
    }
    if (!section.empty()) {
      return Status::Corruption(
          "EventStore: trailing bytes in object index section");
    }
    seen_object_index = true;
  }
  if (!footer.empty()) {
    return Status::Corruption("EventStore: trailing bytes in footer");
  }
  if (!seen_object_index) {
    return Status::Corruption("EventStore: missing object index");
  }
  // Writers emit the bitmaps whenever some dictionary set is non-empty,
  // so a file with annotations and no bitmaps is forged; without any,
  // the empty term table then rightly prunes every annotation term.
  if (reader.annotation_terms_.empty() &&
      std::any_of(reader.dictionary_.begin(), reader.dictionary_.end(),
                  [](const core::AnnotationSet& set) { return !set.empty(); })) {
    return Status::Corruption("EventStore: missing annotation bitmaps");
  }
  return reader;
}

std::vector<std::size_t> EventStoreReader::CandidateBlocks(
    const ScanOptions& scan) const {
  std::vector<std::size_t> out;
  if (scan.EmptyWindow()) return out;
  if (!scan.objects.empty()) {
    // Union of the per-object posting lists. Each list is strictly
    // ascending, so sort + unique over the concatenation restores scan
    // order; every surviving block is then re-checked against the full
    // scan (time window, bounds).
    std::vector<std::uint32_t> postings;
    for (ObjectId object : scan.objects) {
      const auto it = object_index_.find(object.value());
      if (it == object_index_.end()) continue;
      postings.insert(postings.end(), it->second.begin(), it->second.end());
    }
    std::sort(postings.begin(), postings.end());
    postings.erase(std::unique(postings.begin(), postings.end()),
                   postings.end());
    out.reserve(postings.size());
    for (std::uint32_t b : postings) {
      if (BlockMatches(b, scan)) out.push_back(b);
    }
    return out;
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (BlockMatches(i, scan)) out.push_back(i);
  }
  return out;
}

Result<std::string_view> EventStoreReader::BlockPayload(std::size_t i) const {
  const BlockMeta& meta = blocks_[i];
  const std::string_view payload =
      file_.view().substr(meta.offset, meta.length);
  if (Checksum(payload) != meta.checksum) {
    return Status::Corruption("EventStore: block " + std::to_string(i) +
                              " checksum mismatch");
  }
  return payload;
}

bool EventStoreReader::BlockMatches(std::size_t i,
                                    const ScanOptions& scan) const {
  const BlockMeta& meta = blocks_[i];
  if (!scan.objects.empty()) {
    // scan.objects is sorted: the block survives iff some requested id
    // falls inside its [min_object, max_object] envelope.
    const auto it = std::lower_bound(scan.objects.begin(), scan.objects.end(),
                                     ObjectId(meta.min_object));
    if (it == scan.objects.end() || it->value() > meta.max_object) {
      return false;
    }
  }
  return WindowIntersects(scan.min_time, scan.max_time,
                          Timestamp(meta.min_time), Timestamp(meta.max_time));
}

Result<std::shared_ptr<const DecodedBlock>> EventStoreReader::DecodeBlock(
    std::size_t i) const {
  if (i >= blocks_.size()) {
    return Status::InvalidArgument("EventStore: block index " +
                                   std::to_string(i) + " out of range");
  }
  SITM_ASSIGN_OR_RETURN(const std::string_view payload, BlockPayload(i));
  const BlockMeta& meta = blocks_[i];
  // Honest raw columns never exceed ~10 varint bytes per value; the cap
  // bounds what a forged decompressed-size field can allocate.
  SITM_ASSIGN_OR_RETURN(
      const std::string columns,
      DecodeBlockPayload(payload,
                         meta.rows * 80 + meta.trajectories * 48 + 64,
                         meta.rows, i));
  // Open bounds trajectories by rows, and DecodeBlockPayload rows by the
  // column bytes, so the one word buffer is as bounded as those bytes.
  auto block = std::make_shared<DecodedBlock>();
  const auto rows = static_cast<std::size_t>(meta.rows);
  const auto num_trajectories = static_cast<std::size_t>(meta.trajectories);
  block->rows = rows;
  block->trajectories = num_trajectories;
  // Every word is written before it is read, so none is zeroed first.
  block->words.reset(
      new std::uint64_t[DecodedBlock::WordsFor(num_trajectories, rows)]);
  // DecodedBlock::Offset owns the layout; the block is not shared yet,
  // so its columns are written through the writable accessors.
  std::int64_t* const ids = block->Signed(DecodedBlock::kIds);
  std::int64_t* const objects = block->Signed(DecodedBlock::kObjects);
  std::uint64_t* const traj_dicts = block->Unsigned(DecodedBlock::kDicts);
  std::int64_t* const ends = block->Signed(DecodedBlock::kEnds);
  std::uint64_t* const first_rows =
      block->Unsigned(DecodedBlock::kFirstRows);
  std::int64_t* const cells = block->Signed(DecodedBlock::kCells);
  std::int64_t* const transitions =
      block->Signed(DecodedBlock::kTransitions);
  std::int64_t* const starts = block->Signed(DecodedBlock::kStarts);
  std::uint64_t* const durations = block->Unsigned(DecodedBlock::kDurations);
  std::uint64_t* const stay_dicts = block->Unsigned(DecodedBlock::kStayDicts);
  std::uint64_t* const transition_dicts =
      block->Unsigned(DecodedBlock::kTransitionDicts);

  ByteReader reader(columns);
  SITM_RETURN_IF_ERROR(ReadDeltaColumn(reader, num_trajectories, ids));
  SITM_RETURN_IF_ERROR(ReadDeltaColumn(reader, num_trajectories, objects));
  SITM_RETURN_IF_ERROR(ReadVarintColumn(reader, num_trajectories, traj_dicts));
  // The row counts land in first_rows, which the check below turns into
  // each trajectory's first row in place.
  SITM_RETURN_IF_ERROR(ReadVarintColumn(reader, num_trajectories, first_rows));
  std::uint64_t row_sum = 0;
  for (std::size_t t = 0; t < num_trajectories; ++t) {
    const std::uint64_t r = first_rows[t];
    if (r == 0) {
      return Status::Corruption(
          "EventStore: trajectory with zero rows in block " +
          std::to_string(i));
    }
    // Overflow-proof: row_sum <= rows here, so the subtraction cannot
    // wrap, and a forged giant count cannot wrap the running sum.
    if (r > static_cast<std::uint64_t>(rows) - row_sum) {
      return Status::Corruption(
          "EventStore: trajectory row counts exceed block rows in block " +
          std::to_string(i));
    }
    first_rows[t] = row_sum;
    row_sum += r;
  }
  if (row_sum != rows) {
    return Status::Corruption(
        "EventStore: trajectory row counts do not sum to block rows in "
        "block " +
        std::to_string(i));
  }
  first_rows[num_trajectories] = row_sum;
  SITM_RETURN_IF_ERROR(ReadDeltaColumn(reader, rows, cells));
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint64_t raw = 0;
    if (!reader.TryReadVarint64(&raw)) {
      SITM_ASSIGN_OR_RETURN(raw, reader.ReadVarint64());
    }
    transitions[r] = ZigZagDecode(raw);
  }
  SITM_RETURN_IF_ERROR(ReadDeltaColumn(reader, rows, starts));
  SITM_RETURN_IF_ERROR(ReadVarintColumn(reader, rows, durations));
  SITM_RETURN_IF_ERROR(ReadVarintColumn(reader, rows, stay_dicts));
  SITM_RETURN_IF_ERROR(ReadVarintColumn(reader, rows, transition_dicts));
  SITM_ASSIGN_OR_RETURN(block->inferred, ReadBitColumn(reader, rows));
  if (!reader.empty()) {
    return Status::Corruption("EventStore: trailing bytes in block " +
                              std::to_string(i));
  }
  auto dictionary_out_of_range = [](std::uint64_t id) {
    return Status::Corruption("EventStore: dictionary index " +
                              std::to_string(id) + " out of range");
  };
  const std::uint64_t dictionary_size = dictionary_.size();
  block->dictionary_size = dictionary_.size();
  // Every row of every trajectory is validated, in one order with one
  // message per fault, whatever a later scan keeps.
  std::size_t row = 0;
  for (std::size_t t = 0; t < num_trajectories; ++t) {
    std::int64_t end = 0;
    for (; row < first_rows[t + 1]; ++row) {
      if (!EndFromDuration(starts[row], durations[row], &end)) {
        return DurationOverflow();
      }
      if (starts[row] > end) {
        return Status::Corruption("EventStore: invalid interval in block " +
                                  std::to_string(i));
      }
      if (stay_dicts[row] >= dictionary_size) {
        return dictionary_out_of_range(stay_dicts[row]);
      }
      if (transition_dicts[row] >= dictionary_size) {
        return dictionary_out_of_range(transition_dicts[row]);
      }
    }
    if (traj_dicts[t] >= dictionary_size) {
      return dictionary_out_of_range(traj_dicts[t]);
    }
    // Rows are non-empty (zero-row trajectories were rejected above), so
    // the trace ends at its last row's end.
    ends[t] = end;
  }
  block->resident_bytes =
      sizeof(DecodedBlock) +
      DecodedBlock::WordsFor(num_trajectories, rows) * sizeof(std::uint64_t) +
      (block->inferred.capacity() + 7) / 8;
  return std::shared_ptr<const DecodedBlock>(std::move(block));
}

Status EventStoreReader::ScanBlock(const DecodedBlock& block,
                                   const ScanOptions& scan,
                                   const TrajectoryVisitor& visit) const {
  // The views resolve annotations through this reader's dictionary,
  // unchecked, so the block's indices must have been checked against a
  // dictionary of the same size.
  if (block.dictionary_size != dictionary_.size()) {
    return Status::InvalidArgument(
        "EventStore: block decoded against a dictionary of " +
        std::to_string(block.dictionary_size) + " entries, this store has " +
        std::to_string(dictionary_.size()));
  }
  const std::int64_t* const objects = block.objects();
  const std::int64_t* const ends = block.ends();
  const std::uint64_t* const first_rows = block.first_rows();
  const std::int64_t* const starts = block.starts();
  // Late materialization: only the trajectories the scan keeps, judged
  // on the decoded columns, reach the visitor, which builds what it
  // emits and nothing more.
  for (std::size_t t = 0; t < block.trajectories; ++t) {
    const auto first = static_cast<std::size_t>(first_rows[t]);
    const ObjectId object(objects[t]);
    const Timestamp start(starts[first]);
    const Timestamp end(ends[t]);
    if (!RowMatches(scan, object, start, end)) continue;
    TrajectoryView view;
    view.position = t;
    view.id = TrajectoryId(block.ids()[t]);
    view.object = object;
    view.start = start;
    view.end = end;
    view.rows = static_cast<std::size_t>(first_rows[t + 1]) - first;
    view.transitions = block.transitions() + first;
    view.cells = block.cells() + first;
    view.starts = starts + first;
    view.durations = block.durations() + first;
    view.stay_dicts = block.stay_dicts() + first;
    view.transition_dicts = block.transition_dicts() + first;
    view.inferred =
        block.inferred.cbegin() + static_cast<std::ptrdiff_t>(first);
    view.dict = block.dicts()[t];
    view.dictionary = &dictionary_;
    visit(view);
  }
  return Status::OK();
}

Status EventStoreReader::ReadTrajectoryBlock(
    std::size_t i, const ScanOptions& scan,
    const TrajectoryVisitor& visit) const {
  // DecodeBlock refuses an out-of-range index; BlockMatches reads the
  // footer entry, so it only runs on a valid one.
  if (i < blocks_.size() && !BlockMatches(i, scan)) return Status::OK();
  SITM_ASSIGN_OR_RETURN(const std::shared_ptr<const DecodedBlock> block,
                        DecodeBlock(i));
  return ScanBlock(*block, scan, visit);
}

Result<std::vector<core::SemanticTrajectory>>
EventStoreReader::ReadTrajectories(const ScanOptions& scan) const {
  std::vector<core::SemanticTrajectory> out;
  const bool keeps_all = scan.objects.empty() && !scan.min_time.has_value() &&
                         !scan.max_time.has_value();
  if (keeps_all) out.reserve(static_cast<std::size_t>(trajectories_));
  for (std::size_t i : CandidateBlocks(scan)) {
    SITM_RETURN_IF_ERROR(ReadTrajectoryBlock(
        i, scan, [&out](const TrajectoryView& view) {
          out.push_back(view.Build(view.id));
        }));
  }
  return out;
}

bool EventStoreReader::BlockMayContainAnnotation(std::size_t i,
                                                 core::AnnotationKind kind,
                                                 std::string_view value) const {
  if (i >= blocks_.size()) return true;
  // The table's own order: kind, then value, compared in place.
  const auto it = std::lower_bound(
      annotation_terms_.begin(), annotation_terms_.end(), kind,
      [value](const std::pair<core::AnnotationKind, std::string>& term,
              core::AnnotationKind k) {
        if (term.first != k) return term.first < k;
        return std::string_view(term.second) < value;
      });
  if (it == annotation_terms_.end() || it->first != kind ||
      it->second != value) {
    // The term table covers every annotation in the file (it is empty
    // only when the file has none): a term absent from it appears in no
    // block at all.
    return false;
  }
  const auto term =
      static_cast<std::size_t>(it - annotation_terms_.begin());
  const std::size_t bytes_per_bitmap = (annotation_terms_.size() + 7) / 8;
  const std::size_t byte = i * bytes_per_bitmap + term / 8;
  return (static_cast<unsigned char>(annotation_bitmaps_[byte]) >>
          (term % 8)) &
         1u;
}

Status EventStoreReader::VerifyChecksums() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    SITM_RETURN_IF_ERROR(BlockPayload(i).status());
  }
  return Status::OK();
}

}  // namespace sitm::storage
