#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "sched/executor.h"
#include "core/pipeline.h"
#include "io/csv.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "storage/block_cache.h"
#include "storage/columnar.h"
#include "storage/event_store.h"

namespace sitm::storage {
namespace {

// ---------------------------------------------------------------------------
// Columnar encoding primitives.
// ---------------------------------------------------------------------------

TEST(ColumnarTest, VarintRoundTrip) {
  std::string buf;
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 300, (1ull << 32), ~0ull};
  for (std::uint64_t v : values) PutVarint64(buf, v);
  ByteReader reader(buf);
  for (std::uint64_t v : values) {
    const auto decoded = reader.ReadVarint64();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarTest, ZigZagRoundTrip) {
  for (std::int64_t v : {std::int64_t(0), std::int64_t(-1), std::int64_t(1),
                         std::int64_t(-123456789), std::int64_t(1) << 62,
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
}

TEST(ColumnarTest, DeltaColumnRoundTrip) {
  const std::vector<std::int64_t> values = {100, 101, 101, 90, -5, 1000000};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const auto decoded = ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
}

TEST(ColumnarTest, DeltaColumnExtremeValuesRoundTrip) {
  // Adjacent values at the two ends of the int64 range: the deltas wrap
  // mod 2^64 and must still round-trip exactly (and never be UB).
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(), 0,
      std::numeric_limits<std::int64_t>::max()};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const auto decoded = ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarTest, BitColumnRoundTrip) {
  const std::vector<bool> values = {true, false, false, true, true,
                                    false, true, false, true};
  std::string buf;
  PutBitColumn(buf, values);
  EXPECT_EQ(buf.size(), 2u);
  ByteReader reader(buf);
  const auto decoded = ReadBitColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
}

TEST(ColumnarTest, TruncatedReadsAreCorruption) {
  std::string buf;
  PutVarint64(buf, 1u << 20);
  buf.pop_back();
  ByteReader reader(buf);
  EXPECT_EQ(reader.ReadVarint64().status().code(), StatusCode::kCorruption);
  ByteReader empty("", 0);
  EXPECT_EQ(empty.ReadU64().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(empty.ReadBytes(1).status().code(), StatusCode::kCorruption);
}

TEST(ColumnarTest, OverlongVarintIsCorruption) {
  // 11 continuation bytes can never be a valid 64-bit varint.
  const std::string buf(11, '\x80');
  ByteReader reader(buf);
  EXPECT_EQ(reader.ReadVarint64().status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// EventStore fixtures.
// ---------------------------------------------------------------------------

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map =
      new louvre::LouvreMap(louvre::LouvreMap::Build().value());
  return *map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

std::vector<core::RawDetection> SimulatedDetections(std::uint64_t seed,
                                                    int visitors = 150) {
  louvre::SimulatorOptions options;
  options.seed = seed;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return dataset->ToRawDetections();
}

core::PipelineOptions FullPipelineOptions() {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateWhereAttribute("requiresTicket", "true",
                                   {core::AnnotationKind::kOther, "ticketed"}),
      core::AnnotateFinalExit(Map().exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  return options;
}

std::vector<core::SemanticTrajectory> BuildTrajectories(
    std::vector<core::RawDetection> detections) {
  core::BatchPipeline pipeline(FullPipelineOptions());
  auto result = pipeline.Run(std::move(detections));
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

std::string TempPath(const std::string& name) {
  // Pid-suffixed: gtest_discover_tests runs every TEST as its own ctest
  // entry, so concurrent test processes share TempDir — a bare shared
  // name lets one process's TearDown unlink a file another process is
  // mid-SetUp on (seen as flakes under TSan's slowdown).
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

void ExpectTrajectoriesEqual(
    const std::vector<core::SemanticTrajectory>& expected,
    const std::vector<core::SemanticTrajectory>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const core::SemanticTrajectory& a = expected[i];
    const core::SemanticTrajectory& b = actual[i];
    EXPECT_EQ(a.id(), b.id()) << i;
    EXPECT_EQ(a.object(), b.object()) << i;
    EXPECT_EQ(a.annotations(), b.annotations()) << i;
    ASSERT_EQ(a.trace().size(), b.trace().size()) << i;
    for (std::size_t k = 0; k < a.trace().size(); ++k) {
      EXPECT_EQ(a.trace().at(k), b.trace().at(k)) << i << "/" << k;
    }
  }
}

Status WriteTrajectoryStore(const std::string& path,
                            const std::vector<core::SemanticTrajectory>& ts,
                            WriterOptions options = {}) {
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories,
                                         options);
  SITM_RETURN_IF_ERROR(writer.status());
  SITM_RETURN_IF_ERROR(writer->Append(ts));
  return writer->Finish();
}

/// One single-row trajectory of `object` in `cell` per [start, end]
/// span, with ids 0, 1, ... and no annotation anywhere. With
/// rows_per_block = k, each block holds k of them, in order.
std::vector<core::SemanticTrajectory> OneRowTrajectories(
    ObjectId object, CellId cell,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::vector<core::SemanticTrajectory> out;
  for (const auto& [start, end] : spans) {
    std::vector<core::PresenceInterval> intervals;
    intervals.emplace_back(
        BoundaryId::Invalid(), cell,
        *qsr::TimeInterval::Make(Timestamp(start), Timestamp(end)));
    out.emplace_back(TrajectoryId(static_cast<std::int64_t>(out.size())),
                     object, core::Trace(std::move(intervals)),
                     core::AnnotationSet{});
  }
  return out;
}

/// Skips the annotation dictionary at the start of a footer, leaving
/// `footer` at the block count.
void SkipDictionary(ByteReader& footer) {
  const std::uint64_t dict_count = *footer.ReadVarint64();
  for (std::uint64_t d = 0; d < dict_count; ++d) {
    const std::uint64_t entries = *footer.ReadVarint64();
    for (std::uint64_t e = 0; e < entries; ++e) {
      (void)*footer.ReadVarint64();  // kind
      (void)*footer.ReadBytes(*footer.ReadVarint64());
    }
  }
}

// ---------------------------------------------------------------------------
// Roundtrip property tests.
// ---------------------------------------------------------------------------

TEST(EventStoreRoundTripTest, RandomDatasetsRoundTripLosslessly) {
  // Property: for random VisitSimulator datasets, pipeline output written
  // to a store and read back is identical, for several block sizes.
  for (const std::uint64_t seed : {1u, 7u, 20170119u}) {
    const auto trajectories = BuildTrajectories(SimulatedDetections(seed));
    ASSERT_FALSE(trajectories.empty());
    for (const std::size_t rows_per_block : {16ul, 4096ul}) {
      const std::string path = TempPath("roundtrip.evst");
      WriterOptions options;
      options.rows_per_block = rows_per_block;
      ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
      const auto reader = EventStoreReader::Open(path);
      ASSERT_TRUE(reader.ok()) << reader.status();
      EXPECT_EQ(reader->trajectories(), trajectories.size());
      const auto restored = reader->ReadTrajectories();
      ASSERT_TRUE(restored.ok()) << restored.status();
      ExpectTrajectoriesEqual(trajectories, *restored);
      std::remove(path.c_str());
    }
  }
}

TEST(EventStoreRoundTripTest, ParallelEncodingIsByteIdentical) {
  // A store encoded block-parallel by a 3-worker executor is the
  // sequential writer's file, and it reads back losslessly.
  const auto trajectories = BuildTrajectories(SimulatedDetections(5));
  sched::Executor executor(3);
  const std::string seq_path = TempPath("seq.evst");
  const std::string par_path = TempPath("par.evst");
  WriterOptions options;
  options.rows_per_block = 64;
  ASSERT_TRUE(WriteTrajectoryStore(seq_path, trajectories, options).ok());
  options.executor = &executor;
  ASSERT_TRUE(WriteTrajectoryStore(par_path, trajectories, options).ok());
  const auto seq_bytes = io::ReadFile(seq_path);
  const auto par_bytes = io::ReadFile(par_path);
  ASSERT_TRUE(seq_bytes.ok());
  ASSERT_TRUE(par_bytes.ok());
  EXPECT_EQ(*seq_bytes, *par_bytes);
  const auto reader = EventStoreReader::Open(par_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_GT(reader->num_blocks(), 3u);
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTrajectoriesEqual(trajectories, *restored);
  std::remove(seq_path.c_str());
  std::remove(par_path.c_str());
}

TEST(EventStoreRoundTripTest, MultipleBatchesAccumulate) {
  const auto a = BuildTrajectories(SimulatedDetections(11));
  const auto b = BuildTrajectories(SimulatedDetections(12));
  const std::string path = TempPath("batches.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(a).ok());
  ASSERT_TRUE(writer->Append(b).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok()) << restored.status();
  std::vector<core::SemanticTrajectory> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  ExpectTrajectoriesEqual(expected, *restored);
  std::remove(path.c_str());
}

TEST(EventStoreRoundTripTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->num_blocks(), 0u);
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
  std::remove(path.c_str());
}

TEST(EventStoreRoundTripTest, RegularBlocksBelowOneBytePerRowReopen) {
  // 256 one-row trajectories of object 7 in cell 3: 60 s stays starting
  // every 100 s. Every column is one run, so LZ packs the block into
  // fewer payload bytes than it has rows; the reader must still open it.
  std::vector<core::SemanticTrajectory> trajectories;
  for (std::int64_t i = 0; i < 256; ++i) {
    std::vector<core::PresenceInterval> intervals;
    intervals.emplace_back(
        BoundaryId::Invalid(), CellId(3),
        *qsr::TimeInterval::Make(Timestamp(100 * i), Timestamp(100 * i + 60)));
    trajectories.emplace_back(TrajectoryId(i), ObjectId(7),
                              core::Trace(std::move(intervals)),
                              core::AnnotationSet{});
  }
  const std::string path = TempPath("regular_rows.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->num_blocks(), 1u);
  EXPECT_LT(reader->block(0).length, reader->block(0).rows);
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTrajectoriesEqual(trajectories, *restored);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Predicate pushdown.
// ---------------------------------------------------------------------------

TEST(EventStoreScanTest, ObjectPushdownMatchesPostFilter) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(3));
  const std::string path = TempPath("scan_object.evst");
  WriterOptions options;
  options.rows_per_block = 32;  // many blocks -> real pruning
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_GT(reader->num_blocks(), 3u);

  const ObjectId target = trajectories[trajectories.size() / 2].object();
  ScanOptions scan;
  scan.objects = {target};
  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (t.object() == target) expected.push_back(t);
  }
  ExpectTrajectoriesEqual(expected, *scanned);

  // The footer stats must actually prune blocks for a single object.
  std::size_t matching_blocks = 0;
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    matching_blocks += reader->BlockMatches(i, scan) ? 1 : 0;
  }
  EXPECT_LT(matching_blocks, reader->num_blocks());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, TimeRangePushdownMatchesPostFilter) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(8));
  const std::string path = TempPath("scan_time.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Window around the middle of the dataset's span.
  std::int64_t min_t = trajectories.front().start().seconds_since_epoch();
  std::int64_t max_t = min_t;
  for (const auto& t : trajectories) {
    min_t = std::min(min_t, t.start().seconds_since_epoch());
    max_t = std::max(max_t, t.end().seconds_since_epoch());
  }
  ScanOptions scan;
  scan.min_time = Timestamp(min_t + (max_t - min_t) / 3);
  scan.max_time = Timestamp(min_t + 2 * (max_t - min_t) / 3);
  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (t.end() >= *scan.min_time && t.start() <= *scan.max_time) {
      expected.push_back(t);
    }
  }
  ASSERT_FALSE(expected.empty());
  ExpectTrajectoriesEqual(expected, *scanned);
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, TimeRangeInclusiveAtBlockBoundaries) {
  // Two-row blocks of one-row trajectories with known timestamps:
  // block 0 = [100,110],[120,130], block 1 = [130,140],[150,160],
  // block 2 = [200,210]. Tuples exactly at a block's min/max timestamp
  // must match a window touching them at a single instant
  // (closed-interval, inclusive-bound semantics).
  const auto trajectories = OneRowTrajectories(
      ObjectId(7), CellId(1),
      {{100, 110}, {120, 130}, {130, 140}, {150, 160}, {200, 210}});
  const std::string path = TempPath("scan_boundaries.evst");
  WriterOptions options;
  options.rows_per_block = 2;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->num_blocks(), 3u);
  ASSERT_EQ(reader->block(0).max_time, 130);
  ASSERT_EQ(reader->block(1).min_time, 130);

  // Window [130, 130]: exactly block 0's max and block 1's min. Both
  // blocks survive pruning; the two touching tuples match.
  ScanOptions scan;
  scan.min_time = Timestamp(130);
  scan.max_time = Timestamp(130);
  EXPECT_TRUE(reader->BlockMatches(0, scan));
  EXPECT_TRUE(reader->BlockMatches(1, scan));
  EXPECT_FALSE(reader->BlockMatches(2, scan));
  auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ASSERT_EQ(scanned->size(), 2u);
  EXPECT_EQ((*scanned)[0].start(), Timestamp(120));
  EXPECT_EQ((*scanned)[1].start(), Timestamp(130));

  // Window ending exactly at the last block's min: inclusive there too.
  scan.min_time = Timestamp(161);
  scan.max_time = Timestamp(200);
  scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 1u);
  EXPECT_EQ((*scanned)[0].start(), Timestamp(200));

  // A window in the gap between blocks matches nothing.
  scan.min_time = Timestamp(161);
  scan.max_time = Timestamp(199);
  scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->empty());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, InvertedWindowMatchesNothing) {
  // Regression: a row spanning the inversion gap (end >= min_time and
  // start <= max_time despite max < min) used to pass both one-sided
  // tests. The empty window must match no row and no block.
  const auto trajectories = OneRowTrajectories(
      ObjectId(3), CellId(2), {{100, 300} /* spans [150, 200] */, {120, 130}});
  const std::string path = TempPath("scan_inverted.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ScanOptions scan;
  scan.min_time = Timestamp(200);
  scan.max_time = Timestamp(150);
  ASSERT_TRUE(scan.EmptyWindow());
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    EXPECT_FALSE(reader->BlockMatches(i, scan));
  }
  EXPECT_TRUE(reader->CandidateBlocks(scan).empty());
  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Secondary object-id index (format v2).
// ---------------------------------------------------------------------------

TEST(EventStoreObjectIndexTest, PostingListsPruneBlocksExactly) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(31));
  const std::string path = TempPath("object_index.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_GT(reader->num_blocks(), 4u);

  for (std::size_t pick : {std::size_t{0}, trajectories.size() / 2,
                           trajectories.size() - 1}) {
    const ObjectId target = trajectories[pick].object();
    ScanOptions scan;
    scan.objects = {target};
    // The posting list must be a subset of what min/max pruning admits,
    // and scanning only it must still find every match.
    const std::vector<std::size_t> candidates = reader->CandidateBlocks(scan);
    std::size_t min_max_blocks = 0;
    for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
      min_max_blocks += reader->BlockMatches(i, scan) ? 1 : 0;
    }
    EXPECT_LE(candidates.size(), min_max_blocks);
    const auto scanned = reader->ReadTrajectories(scan);
    ASSERT_TRUE(scanned.ok()) << scanned.status();
    std::vector<core::SemanticTrajectory> expected;
    for (const auto& t : trajectories) {
      if (t.object() == target) expected.push_back(t);
    }
    ExpectTrajectoriesEqual(expected, *scanned);
  }

  // An object id the store never saw: the index answers "no blocks"
  // without touching any payload.
  ScanOptions missing;
  missing.objects = {ObjectId(1u << 30)};
  EXPECT_TRUE(reader->CandidateBlocks(missing).empty());
  const auto none = reader->ReadTrajectories(missing);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  std::remove(path.c_str());
}

TEST(EventStoreObjectIndexTest, ForgedPostingBlockIsCorruption) {
  // A forged index that names a nonexistent block must be rejected even
  // when the footer checksum is made consistent again. One object, one
  // block, no annotations: the final footer byte is that object's single
  // posting delta.
  const std::string path = TempPath("forged_index.evst");
  ASSERT_TRUE(WriteTrajectoryStore(
                  path, OneRowTrajectories(ObjectId(5), CellId(1),
                                           {{100, 110}, {120, 130}}))
                  .ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  std::string bytes = *bytes_result;

  // Trailer: footer offset u64, length u64, checksum u64, magic.
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  ASSERT_EQ(bytes[footer_offset + footer_length - 1], 0)  // posting delta 0
      << "test assumes the posting delta is the footer's last byte";
  bytes[footer_offset + footer_length - 1] = 9;  // block 9 of 1
  std::string fixed_checksum;
  PutU64(fixed_checksum,
         Checksum(std::string_view(bytes).substr(footer_offset,
                                                 footer_length)));
  bytes.replace(trailer_at + 16, 8, fixed_checksum);

  const std::string forged_path = TempPath("forged_index_variant.evst");
  ASSERT_TRUE(io::WriteFile(forged_path, bytes).ok());
  const auto reader = EventStoreReader::Open(forged_path);
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
  std::remove(forged_path.c_str());
}

TEST(EventStoreObjectIndexTest, MissingObjectIndexIsCorruption) {
  // Every writer emits the object index, so a v3 file without one is
  // forged, even with its footer checksum repaired. One object, one
  // block, no annotations: the footer ends in the section count and the
  // index section (kind, length, then its four payload bytes).
  const std::string path = TempPath("missing_index.evst");
  ASSERT_TRUE(WriteTrajectoryStore(
                  path, OneRowTrajectories(ObjectId(5), CellId(1),
                                           {{100, 110}, {120, 130}}))
                  .ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  const std::string bytes = *bytes_result;
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  const std::string footer = bytes.substr(footer_offset, footer_length);
  ASSERT_EQ(footer.substr(footer.size() - 7),
            std::string("\x01\x01\x04\x01\x0a\x01\x00", 7))
      << "test assumes the footer ends in the lone index section";

  // Re-frames `forged_footer` behind the blocks with a repaired trailer.
  auto open = [&](const std::string& forged_footer) {
    std::string forged = bytes.substr(0, footer_offset) + forged_footer;
    PutU64(forged, footer_offset);
    PutU64(forged, forged_footer.size());
    PutU64(forged, Checksum(forged_footer));
    forged.append(kTrailerMagic, sizeof(kTrailerMagic));
    const std::string forged_path = TempPath("missing_index_variant.evst");
    EXPECT_TRUE(io::WriteFile(forged_path, forged).ok());
    const Status status = EventStoreReader::Open(forged_path).status();
    std::remove(forged_path.c_str());
    return status;
  };
  // The harness itself: the unforged footer reopens.
  EXPECT_TRUE(open(footer).ok());
  // No sections at all.
  const Status dropped =
      open(footer.substr(0, footer.size() - 7) + std::string(1, '\0'));
  EXPECT_EQ(dropped.code(), StatusCode::kCorruption) << dropped;
  EXPECT_NE(dropped.message().find("missing object index"), std::string::npos)
      << dropped;
  // The index relabelled as an unknown section kind, which readers skip.
  std::string relabelled = footer;
  relabelled[footer.size() - 6] = 9;
  EXPECT_EQ(open(relabelled).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption: truncation, bit flips, bad metadata. Never UB, always a
// Corruption status.
// ---------------------------------------------------------------------------

class EventStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.evst");
    const auto trajectories = BuildTrajectories(SimulatedDetections(23, 60));
    WriterOptions options;
    options.rows_per_block = 64;
    ASSERT_TRUE(WriteTrajectoryStore(path_, trajectories, options).ok());
    const auto bytes = io::ReadFile(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `content` to the store path and returns the status of a full
  /// open + checksum verify + scan.
  Status OpenAndScan(const std::string& content) {
    const std::string path = TempPath("corrupt_variant.evst");
    if (!io::WriteFile(path, content).ok()) {
      return Status::Internal("test setup: cannot write variant");
    }
    Status status = Status::OK();
    auto reader = EventStoreReader::Open(path);
    if (!reader.ok()) {
      status = reader.status();
    } else {
      status = reader->VerifyChecksums();
      if (status.ok()) status = reader->ReadTrajectories().status();
    }
    std::remove(path.c_str());
    return status;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(EventStoreCorruptionTest, TruncationIsCorruption) {
  // Any prefix of a store file must fail cleanly — trailer magic, footer
  // bounds, or block checksum, depending on the cut.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(bytes_.size()) * fraction);
    const Status status = OpenAndScan(bytes_.substr(0, cut));
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut at " << cut;
  }
}

TEST_F(EventStoreCorruptionTest, BadChecksumIsCorruption) {
  // Flip one byte in the middle of the first block's payload.
  std::string flipped = bytes_;
  flipped[kStoreHeaderSize + 3] =
      static_cast<char>(flipped[kStoreHeaderSize + 3] ^ 0x40);
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, WrongVersionIsCorruption) {
  std::string flipped = bytes_;
  flipped[8] = 99;  // version field follows the 8-byte magic
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, WrongMagicIsCorruption) {
  std::string flipped = bytes_;
  flipped[0] = 'X';
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
  // A non-store file entirely.
  EXPECT_EQ(OpenAndScan(std::string(4096, 'z')).code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, EveryByteFlipIsDetected) {
  // Single-byte corruption anywhere — header, block payloads, footer,
  // trailer — must surface as Corruption somewhere in open/verify/scan.
  const std::size_t step = std::max<std::size_t>(1, bytes_.size() / 64);
  for (std::size_t pos = 0; pos < bytes_.size(); pos += step) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    const Status status = OpenAndScan(flipped);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "undetected flip at byte " << pos;
  }
}

TEST_F(EventStoreCorruptionTest, MissingFileIsIOError) {
  EXPECT_EQ(EventStoreReader::Open("/nonexistent/store.evst").status().code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Writer misuse and stats.
// ---------------------------------------------------------------------------

TEST(EventStoreWriterTest, UnknownStoreKindIsRefused) {
  // Every store holds trajectories: the writer refuses any other kind,
  // the retired detection kind 1 included.
  const std::string path = TempPath("kind.evst");
  for (const std::uint32_t kind : {0u, 1u, 3u}) {
    EXPECT_EQ(EventStoreWriter::Create(path, static_cast<StoreKind>(kind))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "kind " << kind;
  }
  // And the reader refuses a header that names kind 1, whatever follows
  // it (the header is not under any checksum).
  ASSERT_TRUE(WriteTrajectoryStore(
                  path, OneRowTrajectories(ObjectId(5), CellId(1),
                                           {{100, 110}}))
                  .ok());
  ASSERT_TRUE(EventStoreReader::Open(path).ok());
  auto bytes = io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ((*bytes)[12], static_cast<char>(StoreKind::kTrajectories))
      << "the kind is the u32 after the magic and the version";
  (*bytes)[12] = 1;
  ASSERT_TRUE(io::WriteFile(path, *bytes).ok());
  const Status status = EventStoreReader::Open(path).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("unknown store kind 1"), std::string::npos)
      << status;
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, EmptyTraceIsRejected) {
  const std::string path = TempPath("emptytrace.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  const std::vector<core::SemanticTrajectory> bad = {core::SemanticTrajectory(
      TrajectoryId(1), ObjectId(1), core::Trace(),
      core::AnnotationSet{{core::AnnotationKind::kActivity, "visit"}})};
  EXPECT_EQ(writer->Append(bad).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, AppendAfterFinishFails) {
  const std::string path = TempPath("finished.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->Append(std::vector<core::SemanticTrajectory>{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Finish().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, StatsCountRowsBlocksAndBytes) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(31));
  std::size_t rows = 0;
  for (const auto& t : trajectories) rows += t.trace().size();
  const std::string path = TempPath("stats.evst");
  WriterOptions options;
  options.rows_per_block = 100;
  auto writer =
      EventStoreWriter::Create(path, StoreKind::kTrajectories, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const StoreStats& stats = writer->stats();
  EXPECT_EQ(stats.rows, rows);
  EXPECT_EQ(stats.trajectories, trajectories.size());
  EXPECT_GE(stats.blocks, rows / 100 / 2);
  EXPECT_GT(stats.dictionary_entries, 0u);
  EXPECT_GT(stats.file_bytes, stats.payload_bytes);
  // The columnar event layout beats ~20 bytes/tuple on this workload.
  EXPECT_LT(stats.payload_bytes, rows * 20);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v3 LZ blocks: property roundtrips across block sizes.
// ---------------------------------------------------------------------------

TEST(EventStoreCodecTest, LzBlocksRoundTripRandomDatasets) {
  // Property: LZ blocks are lossless at every block size.
  for (const std::uint64_t seed : {4u, 77u}) {
    const auto trajectories = BuildTrajectories(SimulatedDetections(seed, 80));
    for (const std::size_t rows_per_block : {16ul, 512ul, 8192ul}) {
      WriterOptions options;
      options.rows_per_block = rows_per_block;
      SCOPED_TRACE("rpb=" + std::to_string(rows_per_block));

      const std::string traj_path = TempPath("codec_traj.evst");
      ASSERT_TRUE(WriteTrajectoryStore(traj_path, trajectories, options).ok());
      const auto traj_reader = EventStoreReader::Open(traj_path);
      ASSERT_TRUE(traj_reader.ok()) << traj_reader.status();
      EXPECT_TRUE(traj_reader->VerifyChecksums().ok());
      const auto restored = traj_reader->ReadTrajectories();
      ASSERT_TRUE(restored.ok()) << restored.status();
      ExpectTrajectoriesEqual(trajectories, *restored);
      std::remove(traj_path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Version compatibility: the writer's v3 bytes are pinned, and readers
// refuse the checked-in v1/v2 files.
// ---------------------------------------------------------------------------

/// A fixed dataset for the byte-identity goldens: 7 trajectories over 5
/// objects with shared and distinct annotations, an inferred tuple, and
/// named transitions. Changing this fixture invalidates the pinned
/// checksums below — regenerate them rather than editing either alone.
std::vector<core::SemanticTrajectory> GoldenTrajectories() {
  std::vector<core::SemanticTrajectory> out;
  for (int t = 0; t < 7; ++t) {
    core::Trace trace;
    const int rows = 2 + (t * 3) % 5;
    const std::int64_t base = 1000000 + t * 7777;
    for (int r = 0; r < rows; ++r) {
      core::PresenceInterval p;
      p.transition = (r % 3 == 1) ? BoundaryId(40 + r) : BoundaryId();
      p.cell = CellId((t * 11 + r * 5) % 23);
      p.interval =
          qsr::TimeInterval::Make(Timestamp(base + r * 60),
                                  Timestamp(base + r * 60 + 30 + r))
              .value();
      if (r % 2 == 0) {
        p.annotations.Add({core::AnnotationKind::kActivity, "stop"});
      } else {
        p.annotations.Add({core::AnnotationKind::kBehavior, "move"});
      }
      if (t % 3 == 0 && r == 0) {
        p.annotations.Add({core::AnnotationKind::kGoal, "visit"});
      }
      if (r % 4 == 3) {
        p.transition_annotations.Add({core::AnnotationKind::kOther, "door"});
      }
      p.inferred = (t == 2 && r == 1);
      trace.Append(p);
    }
    core::AnnotationSet traj_ann;
    traj_ann.Add({core::AnnotationKind::kActivity, t % 2 ? "tour" : "work"});
    out.emplace_back(TrajectoryId(t), ObjectId(t % 5), std::move(trace),
                     std::move(traj_ann));
  }
  return out;
}

TEST(EventStoreCompatTest, V3EmissionIsByteIdenticalToPinnedGoldens) {
  // The default writer's output, pinned: v3, LZ blocks, object index,
  // and annotation bitmaps. Any change to the emitted bytes breaks these.
  struct Golden {
    StoreKind kind;
    std::size_t rows_per_block;
    std::uint64_t checksum;
  };
  const Golden goldens[] = {
      {StoreKind::kTrajectories, 3, 0xec1bf504d77067fbull},
      {StoreKind::kTrajectories, 4096, 0x072c23b292f7add2ull},
  };
  for (const Golden& golden : goldens) {
    WriterOptions options;
    options.rows_per_block = golden.rows_per_block;
    const std::string path = TempPath("golden_v3.evst");
    ASSERT_TRUE(WriteTrajectoryStore(path, GoldenTrajectories(), options).ok());
    const auto bytes = io::ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(Checksum(*bytes), golden.checksum)
        << "kind=" << static_cast<int>(golden.kind)
        << " rpb=" << golden.rows_per_block;
    std::remove(path.c_str());
  }
}

TEST(EventStoreCompatTest, PreV3FilesAreRefused) {
  // Files written by the v1/v2 writers over GoldenTrajectories(), checked
  // in under tests/data. The checksums were pinned when those writers
  // still existed, so they prove each fixture is the old writer's exact
  // output; readers accept v3 only and must refuse each one, naming its
  // version.
  struct Golden {
    const char* file;
    std::uint32_t version;
    std::uint64_t checksum;
  };
  const Golden goldens[] = {
      {"golden_v2_rpb3.evst", 2, 0x72c00a0f6e4a2625ull},
      {"golden_v1_rpb3.evst", 1, 0x71df166c06b47831ull},
      {"golden_v2_rpb4096.evst", 2, 0xc24024e8c4324573ull},
      {"golden_v1_rpb4096.evst", 1, 0x6bf1f71ef7d37ad1ull},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.file);
    const std::string path =
        std::string(SITM_TEST_DATA_DIR) + "/" + golden.file;
    const auto bytes = io::ReadFile(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    EXPECT_EQ(Checksum(*bytes), golden.checksum);

    const Status status = EventStoreReader::Open(path).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.message().find("unsupported format version " +
                                    std::to_string(golden.version)),
              std::string::npos)
        << status;
  }
}

// ---------------------------------------------------------------------------
// v3 corruption: forged codec bytes behind a *valid* checksum, so the
// failures exercise the block decoder rather than the checksum verify.
// ---------------------------------------------------------------------------

class EventStoreCodecCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("codec_corrupt.evst");
    ASSERT_TRUE(WriteTrajectoryStore(
                    path_, BuildTrajectories(SimulatedDetections(17, 60)))
                    .ok());
    const auto bytes = io::ReadFile(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;

    // Locate block 0's payload and its checksum slot in the footer.
    const std::size_t trailer_at = bytes_.size() - kStoreTrailerSize;
    ByteReader trailer(bytes_.data() + trailer_at, kStoreTrailerSize);
    footer_offset_ = *trailer.ReadU64();
    footer_length_ = *trailer.ReadU64();
    ByteReader footer(bytes_.data() + footer_offset_, footer_length_);
    SkipDictionary(footer);
    ASSERT_GT(*footer.ReadVarint64(), 0u);  // block count
    block_offset_ = *footer.ReadVarint64();
    block_length_ = *footer.ReadVarint64();
    (void)*footer.ReadVarint64();   // rows
    (void)*footer.ReadVarint64();   // trajectories
    (void)*footer.ReadSVarint64();  // min_object
    (void)*footer.ReadSVarint64();  // max_object
    (void)*footer.ReadSVarint64();  // min_time
    (void)*footer.ReadSVarint64();  // max_time
    checksum_at_ =
        footer_offset_ + (footer_length_ - footer.remaining()) - 8;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites payload bytes in place, then repairs the block checksum
  /// and the footer checksum so only the decoder can notice.
  Status MutatePayloadAndScan(std::size_t payload_pos,
                              std::string_view new_bytes) {
    std::string bytes = bytes_;
    bytes.replace(block_offset_ + payload_pos, new_bytes.size(), new_bytes);
    std::string block_checksum;
    PutU64(block_checksum,
           Checksum(std::string_view(bytes).substr(block_offset_,
                                                   block_length_)));
    bytes.replace(checksum_at_, 8, block_checksum);
    std::string footer_checksum;
    PutU64(footer_checksum,
           Checksum(std::string_view(bytes).substr(footer_offset_,
                                                   footer_length_)));
    bytes.replace(bytes.size() - kStoreTrailerSize + 16, 8,
                  footer_checksum);

    const std::string path = TempPath("codec_corrupt_variant.evst");
    Status status = io::WriteFile(path, bytes);
    if (!status.ok()) return status;
    auto reader = EventStoreReader::Open(path);
    if (reader.ok()) status = reader->ReadTrajectories().status();
    else status = reader.status();
    std::remove(path.c_str());
    return status;
  }

  std::string path_;
  std::string bytes_;
  std::uint64_t footer_offset_ = 0;
  std::uint64_t footer_length_ = 0;
  std::uint64_t block_offset_ = 0;
  std::uint64_t block_length_ = 0;
  std::size_t checksum_at_ = 0;
};

TEST_F(EventStoreCodecCorruptionTest, UnknownCodecIdIsCorruption) {
  // The codec id is the first varint of every v3 block payload. Only
  // the LZ id decodes; the reserved ids 0, 1 and 3 are rejected like
  // any unknown id.
  ASSERT_EQ(static_cast<unsigned char>(bytes_[block_offset_]), kLzCodecId);
  for (const char id : {'\x00', '\x01', '\x03', '\x09'}) {
    EXPECT_EQ(MutatePayloadAndScan(0, std::string_view(&id, 1)).code(),
              StatusCode::kCorruption)
        << "codec id " << static_cast<int>(id);
  }
}

TEST_F(EventStoreCodecCorruptionTest, ForgedHugeRawSizeIsCorruption) {
  // Rewrite the raw-size varint to declare ~2^34 bytes: the decode
  // allocation cap (a function of the block's row count) must reject it
  // before any allocation happens.
  ASSERT_GT(block_length_, 6u);
  EXPECT_EQ(MutatePayloadAndScan(1, "\xff\xff\xff\xff\x3f").code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCodecCorruptionTest, ShrunkenRawSizeIsCorruption) {
  // A raw size smaller than what the stream decodes to trips the LZ
  // overflow guards (a truncated-payload shape, seen from the other
  // side: stream and size no longer agree).
  EXPECT_EQ(MutatePayloadAndScan(1, std::string_view("\x00", 1)).code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCodecCorruptionTest, BitFlippedStreamNeverMisbehaves) {
  // Arbitrary flips inside the compressed stream, hidden behind a
  // repaired checksum: decode must end in OK or Corruption, never UB
  // (the sanitizer matrix runs this test to prove the "never UB" half).
  const std::size_t step = std::max<std::size_t>(1, block_length_ / 48);
  for (std::size_t pos = 2; pos < block_length_; pos += step) {
    const char flipped =
        static_cast<char>(bytes_[block_offset_ + pos] ^ 0x11);
    const Status status =
        MutatePayloadAndScan(pos, std::string_view(&flipped, 1));
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCorruption)
        << "flip at payload byte " << pos << ": " << status;
  }
}

// ---------------------------------------------------------------------------
// Annotation bitmaps: pruning soundness and forged-section rejection.
// ---------------------------------------------------------------------------

TEST(EventStoreAnnotationBitmapTest, PruningIsASoundOverApproximation) {
  // For every annotation term in the store and every block: when the
  // bitmap says "cannot contain", no trajectory in that block carries
  // the term (anywhere — trajectory, tuple, or transition level).
  const auto trajectories = BuildTrajectories(SimulatedDetections(13));
  const std::string path = TempPath("bitmap_sound.evst");
  WriterOptions options;
  options.rows_per_block = 48;  // many blocks
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->has_annotation_bitmaps());
  ASSERT_GT(reader->num_blocks(), 3u);

  // Collect every distinct term in the dataset.
  std::vector<std::pair<core::AnnotationKind, std::string>> terms;
  auto add_terms = [&terms](const core::AnnotationSet& set) {
    for (const auto& a : set.annotations()) {
      terms.emplace_back(a.kind, a.value);
    }
  };
  for (const auto& t : trajectories) {
    add_terms(t.annotations());
    for (std::size_t k = 0; k < t.trace().size(); ++k) {
      add_terms(t.trace().at(k).annotations);
      add_terms(t.trace().at(k).transition_annotations);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  ASSERT_GT(terms.size(), 2u);

  std::size_t pruned = 0;
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    std::vector<core::SemanticTrajectory> block_trajectories;
    ASSERT_TRUE(reader
                    ->ReadTrajectoryBlock(i, ScanOptions{},
                                          [&](const TrajectoryView& view) {
                                            block_trajectories.push_back(
                                                view.Build(view.id));
                                          })
                    .ok());
    for (const auto& [kind, value] : terms) {
      if (reader->BlockMayContainAnnotation(i, kind, value)) continue;
      ++pruned;
      for (const auto& t : block_trajectories) {
        EXPECT_FALSE(t.annotations().Contains({kind, value}));
        for (std::size_t k = 0; k < t.trace().size(); ++k) {
          EXPECT_FALSE(
              t.trace().at(k).annotations.Contains({kind, value}));
          EXPECT_FALSE(t.trace().at(k).transition_annotations.Contains(
              {kind, value}));
        }
      }
    }
  }
  // The dataset's rarer terms (e.g. per-zone attributes) must actually
  // prune somewhere, or the bitmaps are vacuous.
  EXPECT_GT(pruned, 0u);

  // A term absent from the file prunes every block.
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    EXPECT_FALSE(reader->BlockMayContainAnnotation(
        i, core::AnnotationKind::kGoal, "no-such-term"));
  }
  std::remove(path.c_str());

  // A file without any annotation carries no bitmaps (Open requires them
  // of annotated files only), and every block is pruned. An index past
  // the last block still answers "maybe".
  const std::string plain_path = TempPath("bitmap_absent.evst");
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::int64_t s = 0; s < 40; ++s) spans.emplace_back(100 * s, 100 * s + 60);
  WriterOptions small_blocks;
  small_blocks.rows_per_block = 16;
  ASSERT_TRUE(WriteTrajectoryStore(plain_path,
                                   OneRowTrajectories(ObjectId(4), CellId(2),
                                                      spans),
                                   small_blocks)
                  .ok());
  const auto plain = EventStoreReader::Open(plain_path);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(plain->has_annotation_bitmaps());
  ASSERT_GT(plain->num_blocks(), 1u);
  for (std::size_t i = 0; i < plain->num_blocks(); ++i) {
    EXPECT_FALSE(plain->BlockMayContainAnnotation(
        i, core::AnnotationKind::kGoal, "no-such-term"));
  }
  EXPECT_TRUE(plain->BlockMayContainAnnotation(
      plain->num_blocks(), core::AnnotationKind::kGoal, "no-such-term"));
  std::remove(plain_path.c_str());
}

TEST(EventStoreAnnotationBitmapTest, ForgedBitmapSectionIsCorruption) {
  // One trajectory, one annotation term, one block: the bitmap section
  // is the footer's tail with a known byte layout, so each structural
  // field can be forged precisely (footer checksum repaired each time).
  core::Trace trace;
  core::PresenceInterval p;
  p.cell = CellId(1);
  p.interval = qsr::TimeInterval::Make(Timestamp(10), Timestamp(20)).value();
  trace.Append(p);
  const std::vector<core::SemanticTrajectory> one = {core::SemanticTrajectory(
      TrajectoryId(1), ObjectId(1), std::move(trace),
      core::AnnotationSet{{core::AnnotationKind::kGoal, "z"}})};
  const std::string path = TempPath("bitmap_forge.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, one).ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  const std::string bytes = *bytes_result;
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  const std::size_t footer_end = footer_offset + footer_length;
  // Section tail layout: ... term_count=1, kind, value_len=1, 'z',
  // block_count=1, bitmap byte 0x01.
  ASSERT_EQ(bytes[footer_end - 1], 0x01);  // bitmap: bit 0 set
  ASSERT_EQ(bytes[footer_end - 2], 0x01);  // block count 1
  ASSERT_EQ(bytes[footer_end - 3], 'z');   // the term value
  ASSERT_EQ(bytes[footer_end - 4], 0x01);  // value length 1
  ASSERT_EQ(bytes[footer_end - 5],
            static_cast<char>(core::AnnotationKind::kGoal));
  ASSERT_EQ(bytes[footer_end - 6], 0x01);  // term count 1

  auto forge = [&](std::size_t back_offset, unsigned char value) {
    std::string forged = bytes;
    forged[footer_end - back_offset] = static_cast<char>(value);
    std::string fixed;
    PutU64(fixed, Checksum(std::string_view(forged).substr(footer_offset,
                                                           footer_length)));
    forged.replace(trailer_at + 16, 8, fixed);
    const std::string forged_path = TempPath("bitmap_forge_variant.evst");
    EXPECT_TRUE(io::WriteFile(forged_path, forged).ok());
    const Status status = EventStoreReader::Open(forged_path).status();
    std::remove(forged_path.c_str());
    return status;
  };
  // Block count that disagrees with the block index.
  EXPECT_EQ(forge(2, 7).code(), StatusCode::kCorruption);
  // Term count pointing past the section's bytes.
  EXPECT_EQ(forge(6, 200).code(), StatusCode::kCorruption);
  // An annotation kind the enum does not define.
  EXPECT_EQ(forge(5, 99).code(), StatusCode::kCorruption);
  // Value length overrunning the section.
  EXPECT_EQ(forge(4, 120).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EventStoreAnnotationBitmapTest, MissingBitmapSectionIsCorruption) {
  // Writers emit the bitmaps whenever the dictionary holds an annotation,
  // so an annotated file without them is forged, even with its footer
  // checksum repaired. One trajectory, one term, one block: the footer
  // ends in the section count 2, the object index (kind, length, four
  // payload bytes) and the bitmap section (kind, length, six bytes).
  core::Trace trace;
  core::PresenceInterval p;
  p.cell = CellId(1);
  p.interval = qsr::TimeInterval::Make(Timestamp(10), Timestamp(20)).value();
  trace.Append(p);
  const std::vector<core::SemanticTrajectory> one = {core::SemanticTrajectory(
      TrajectoryId(1), ObjectId(1), std::move(trace),
      core::AnnotationSet{{core::AnnotationKind::kGoal, "z"}})};
  const std::string path = TempPath("bitmap_missing.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, one).ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  const std::string bytes = *bytes_result;
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  const std::string footer = bytes.substr(footer_offset, footer_length);
  const std::string sections = std::string("\x02\x01\x04\x01\x02\x01\x00", 7) +
                               "\x02\x06\x01" +
                               static_cast<char>(core::AnnotationKind::kGoal) +
                               "\x01z\x01\x01";
  ASSERT_EQ(footer.substr(footer.size() - sections.size()), sections)
      << "test assumes the footer ends in the index and bitmap sections";

  // Re-frames `forged_footer` behind the blocks with a repaired trailer.
  auto open = [&](const std::string& forged_footer) {
    std::string forged = bytes.substr(0, footer_offset) + forged_footer;
    PutU64(forged, footer_offset);
    PutU64(forged, forged_footer.size());
    PutU64(forged, Checksum(forged_footer));
    forged.append(kTrailerMagic, sizeof(kTrailerMagic));
    const std::string forged_path = TempPath("bitmap_missing_variant.evst");
    EXPECT_TRUE(io::WriteFile(forged_path, forged).ok());
    const Status status = EventStoreReader::Open(forged_path).status();
    std::remove(forged_path.c_str());
    return status;
  };
  // The harness itself: the unforged footer reopens.
  EXPECT_TRUE(open(footer).ok());
  // The bitmap section dropped: one section left, the object index.
  const std::size_t count_at = footer.size() - sections.size();
  const Status dropped = open(footer.substr(0, count_at) + "\x01" +
                              footer.substr(count_at + 1, 6));
  EXPECT_EQ(dropped.code(), StatusCode::kCorruption) << dropped;
  EXPECT_NE(dropped.message().find("missing annotation bitmaps"),
            std::string::npos)
      << dropped;
  // The bitmaps relabelled as an unknown section kind, which readers skip.
  std::string relabelled = footer;
  relabelled[count_at + 7] = 9;
  const Status skipped = open(relabelled);
  EXPECT_EQ(skipped.code(), StatusCode::kCorruption) << skipped;
  EXPECT_NE(skipped.message().find("missing annotation bitmaps"),
            std::string::npos)
      << skipped;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-object scans.
// ---------------------------------------------------------------------------

TEST(EventStoreScanTest, MultiObjectScanEqualsPostFilterUnion) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(9));
  const std::string path = TempPath("multi_object.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Three present objects plus one absent, deliberately unsorted.
  std::vector<ObjectId> targets = {
      trajectories[trajectories.size() / 4].object(),
      trajectories[1].object(), ObjectId(1u << 30),
      trajectories[trajectories.size() - 2].object()};
  ScanOptions scan;
  scan.objects = targets;
  std::sort(scan.objects.begin(), scan.objects.end());
  scan.objects.erase(std::unique(scan.objects.begin(), scan.objects.end()),
                     scan.objects.end());

  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (std::binary_search(scan.objects.begin(), scan.objects.end(),
                           t.object())) {
      expected.push_back(t);
    }
  }
  ASSERT_FALSE(expected.empty());
  ExpectTrajectoriesEqual(expected, *scanned);

  // The posting-list union prunes: candidate blocks are exactly the
  // union of each object's candidates, and fewer than the whole file.
  const auto candidates = reader->CandidateBlocks(scan);
  std::vector<std::size_t> unioned;
  for (const ObjectId object : scan.objects) {
    const auto per_object = reader->CandidateBlocks(
        ScanOptions::ForObject(object));
    unioned.insert(unioned.end(), per_object.begin(), per_object.end());
  }
  std::sort(unioned.begin(), unioned.end());
  unioned.erase(std::unique(unioned.begin(), unioned.end()), unioned.end());
  EXPECT_EQ(candidates, unioned);
  EXPECT_LT(candidates.size(), reader->num_blocks());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, EmptyObjectListScansEverything) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(9, 40));
  const std::string path = TempPath("all_objects.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto scanned = reader->ReadTrajectories(ScanOptions{});
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ExpectTrajectoriesEqual(trajectories, *scanned);
  std::remove(path.c_str());
}

TEST(EventStoreReaderTest, MappedOnPosix) {
  const std::string path = TempPath("mapped.evst");
  ASSERT_TRUE(
      WriteTrajectoryStore(path, BuildTrajectories(SimulatedDetections(2)))
          .ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  std::remove(path.c_str());
}

// A file maps or fails; there is no plain-read fallback. An empty file
// is an empty view, and a path that is missing or not a regular file
// is IOError.
TEST(MappedFileTest, MapsOrFails) {
  const std::string empty = TempPath("empty.bin");
  ASSERT_TRUE(io::WriteFile(empty, "").ok());
  const auto mapped = MappedFile::Open(empty);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->view().empty());
  std::remove(empty.c_str());

  const auto missing = MappedFile::Open(empty);
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  EXPECT_EQ(missing.status().message(),
            "cannot open '" + empty + "' for reading");

  const auto directory = MappedFile::Open(::testing::TempDir());
  EXPECT_EQ(directory.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Late materialization: trajectory blocks filter on decoded columns and
// build only the kept trajectories, yet validate every row.
// ---------------------------------------------------------------------------

/// The decoded columns of one v3 trajectory block, in payload order.
struct TrajectoryColumns {
  std::vector<std::int64_t> traj_ids, traj_objects;
  std::vector<std::uint64_t> traj_dicts, traj_rows;
  std::vector<std::int64_t> cells, transitions, starts;
  std::vector<std::uint64_t> durations, stay_dicts, transition_dicts;
  std::vector<bool> inferred;
};

/// Rewrites the only block of a single-block v3 trajectory store: its
/// columns are decoded, changed by `mutate`, re-encoded, re-compressed
/// with CompressBytes and re-framed; then the block's footer entry
/// (length, checksum) and the footer checksum are repaired, so only the
/// row validation can notice the change.
template <typename Mutate>
std::string ForgeSingleTrajectoryBlock(const std::string& bytes,
                                       Mutate mutate) {
  ByteReader trailer(bytes.data() + bytes.size() - kStoreTrailerSize,
                     kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  const std::string footer(bytes, footer_offset, footer_length);
  ByteReader index(footer);
  const std::uint64_t dict_count = *index.ReadVarint64();
  for (std::uint64_t d = 0; d < dict_count; ++d) {
    const std::uint64_t entries = *index.ReadVarint64();
    for (std::uint64_t e = 0; e < entries; ++e) {
      (void)*index.ReadVarint64();  // kind
      (void)*index.ReadBytes(*index.ReadVarint64());
    }
  }
  const std::size_t dictionary_end = index.position();
  EXPECT_EQ(*index.ReadVarint64(), 1u) << "single-block stores only";
  BlockMeta meta;
  meta.offset = *index.ReadVarint64();
  meta.length = *index.ReadVarint64();
  meta.rows = *index.ReadVarint64();
  meta.trajectories = *index.ReadVarint64();
  meta.min_object = *index.ReadSVarint64();
  meta.max_object = *index.ReadSVarint64();
  meta.min_time = *index.ReadSVarint64();
  meta.max_time = *index.ReadSVarint64();
  (void)*index.ReadU64();  // checksum
  const std::size_t sections_begin = index.position();

  ByteReader payload(bytes.data() + meta.offset, meta.length);
  EXPECT_EQ(*payload.ReadVarint64(), kLzCodecId);
  const std::uint64_t raw_size = *payload.ReadVarint64();
  const std::string raw =
      *DecompressBytes(*payload.ReadBytes(payload.remaining()), raw_size);
  ByteReader reader(raw);
  const auto trajectories = static_cast<std::size_t>(meta.trajectories);
  const auto rows = static_cast<std::size_t>(meta.rows);
  TrajectoryColumns c;
  c.traj_ids = *ReadDeltaColumn(reader, trajectories);
  c.traj_objects = *ReadDeltaColumn(reader, trajectories);
  c.traj_dicts = *ReadVarintColumn(reader, trajectories);
  c.traj_rows = *ReadVarintColumn(reader, trajectories);
  c.cells = *ReadDeltaColumn(reader, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    c.transitions.push_back(*reader.ReadSVarint64());
  }
  c.starts = *ReadDeltaColumn(reader, rows);
  c.durations = *ReadVarintColumn(reader, rows);
  c.stay_dicts = *ReadVarintColumn(reader, rows);
  c.transition_dicts = *ReadVarintColumn(reader, rows);
  c.inferred = *ReadBitColumn(reader, rows);
  EXPECT_TRUE(reader.empty());

  mutate(c);

  std::string columns;
  PutDeltaColumn(columns, c.traj_ids);
  PutDeltaColumn(columns, c.traj_objects);
  PutVarintColumn(columns, c.traj_dicts);
  PutVarintColumn(columns, c.traj_rows);
  PutDeltaColumn(columns, c.cells);
  for (const std::int64_t t : c.transitions) PutSVarint64(columns, t);
  PutDeltaColumn(columns, c.starts);
  PutVarintColumn(columns, c.durations);
  PutVarintColumn(columns, c.stay_dicts);
  PutVarintColumn(columns, c.transition_dicts);
  PutBitColumn(columns, c.inferred);
  std::string block;
  PutVarint64(block, kLzCodecId);
  PutVarint64(block, columns.size());
  block += CompressBytes(columns);

  std::string new_footer = footer.substr(0, dictionary_end);
  PutVarint64(new_footer, 1);
  PutVarint64(new_footer, meta.offset);
  PutVarint64(new_footer, block.size());
  PutVarint64(new_footer, meta.rows);
  PutVarint64(new_footer, meta.trajectories);
  PutSVarint64(new_footer, meta.min_object);
  PutSVarint64(new_footer, meta.max_object);
  PutSVarint64(new_footer, meta.min_time);
  PutSVarint64(new_footer, meta.max_time);
  PutU64(new_footer, Checksum(block));
  new_footer += footer.substr(sections_begin);

  std::string out = bytes.substr(0, meta.offset) + block;
  const std::uint64_t new_footer_offset = out.size();
  out += new_footer;
  PutU64(out, new_footer_offset);
  PutU64(out, new_footer.size());
  PutU64(out, Checksum(new_footer));
  out.append(kTrailerMagic, sizeof(kTrailerMagic));
  return out;
}

/// Position of the first row of trajectory `t` in a block's row columns.
std::size_t FirstRowOf(const TrajectoryColumns& c, std::size_t t) {
  std::size_t row = 0;
  for (std::size_t k = 0; k < t; ++k) {
    row += static_cast<std::size_t>(c.traj_rows[k]);
  }
  return row;
}

TEST(EventStoreLateMaterializationTest, FilteredScansStillValidateEveryRow) {
  // GoldenTrajectories() in one block: trajectories 0..6 over objects
  // 0,1,2,3,4,0,1. Each forgery puts a bad row (or trajectory entry) in
  // a trajectory a point lookup of object 3 (trajectory 3) excludes,
  // before or after the kept one. The lookup must fail exactly like the
  // full scan does.
  const std::string path = TempPath("late_materialization_forged.evst");
  WriterOptions options;
  options.rows_per_block = 4096;
  ASSERT_TRUE(WriteTrajectoryStore(path, GoldenTrajectories(), options).ok());
  const auto original = io::ReadFile(path);
  ASSERT_TRUE(original.ok());
  const ObjectId kept(3);

  struct Forgery {
    const char* name;
    std::size_t trajectory;  // the excluded trajectory carrying the fault
    std::function<void(TrajectoryColumns&, std::size_t row)> apply;
    const char* message;
  };
  const Forgery forgeries[] = {
      {"stay dictionary index past the end", 6,
       [](TrajectoryColumns& c, std::size_t row) {
         c.stay_dicts[row + 1] = 1000;
       },
       "EventStore: dictionary index 1000 out of range"},
      {"transition dictionary index past the end", 1,
       [](TrajectoryColumns& c, std::size_t row) {
         c.transition_dicts[row + 2] = 999;
       },
       "EventStore: dictionary index 999 out of range"},
      {"trajectory dictionary index past the end", 0,
       [](TrajectoryColumns& c, std::size_t) { c.traj_dicts[0] = 77; },
       "EventStore: dictionary index 77 out of range"},
      {"overflowing duration", 6,
       [](TrajectoryColumns& c, std::size_t row) {
         // A 10-byte varint, so the fast varint path falls back too.
         c.durations[row] = std::numeric_limits<std::uint64_t>::max();
       },
       "EventStore: duration overflows the epoch"},
      {"overflowing duration before the kept trajectory", 1,
       [](TrajectoryColumns& c, std::size_t row) {
         c.durations[row + 4] = static_cast<std::uint64_t>(
                                    std::numeric_limits<std::int64_t>::max()) -
                                static_cast<std::uint64_t>(c.starts[row + 4]) +
                                1;
       },
       "EventStore: duration overflows the epoch"},
  };
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.name);
    const std::string forged = ForgeSingleTrajectoryBlock(
        *original, [&](TrajectoryColumns& c) {
          ASSERT_NE(c.traj_objects[forgery.trajectory], kept.value());
          forgery.apply(c, FirstRowOf(c, forgery.trajectory));
        });
    const std::string forged_path = TempPath("late_materialization_variant.evst");
    ASSERT_TRUE(io::WriteFile(forged_path, forged).ok());
    const auto reader = EventStoreReader::Open(forged_path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ASSERT_EQ(reader->num_blocks(), 1u);

    const auto full = reader->ReadTrajectories();
    ASSERT_EQ(full.status().code(), StatusCode::kCorruption) << full.status();
    EXPECT_EQ(full.status().message(), forgery.message);

    // Visitor scans that build what they keep, and one that builds
    // nothing, fail the same way.
    std::vector<core::SemanticTrajectory> built;
    const auto build = [&built](const TrajectoryView& view) {
      built.push_back(view.Build(view.id));
    };
    const Status unfiltered =
        reader->ReadTrajectoryBlock(0, ScanOptions{}, build);
    EXPECT_EQ(unfiltered.code(), full.status().code());
    EXPECT_EQ(unfiltered.message(), full.status().message());

    const Status point =
        reader->ReadTrajectoryBlock(0, ScanOptions::ForObject(kept), build);
    EXPECT_EQ(point.code(), full.status().code());
    EXPECT_EQ(point.message(), full.status().message());

    // A window holding only the kept trajectory fails the same way.
    const Timestamp kept_start = GoldenTrajectories()[3].start();
    ScanOptions window;
    window.min_time = kept_start;
    window.max_time = kept_start;
    const Status windowed = reader->ReadTrajectoryBlock(0, window, build);
    EXPECT_EQ(windowed.code(), full.status().code());
    EXPECT_EQ(windowed.message(), full.status().message());

    const Status columns_only = reader->ReadTrajectoryBlock(
        0, ScanOptions::ForObject(kept), [](const TrajectoryView&) {});
    EXPECT_EQ(columns_only.code(), full.status().code());
    EXPECT_EQ(columns_only.message(), full.status().message());
    std::remove(forged_path.c_str());
  }

  // The unmodified re-encode decodes cleanly: the forger itself
  // introduces no fault.
  const std::string identity =
      ForgeSingleTrajectoryBlock(*original, [](TrajectoryColumns&) {});
  const std::string identity_path = TempPath("late_materialization_same.evst");
  ASSERT_TRUE(io::WriteFile(identity_path, identity).ok());
  const auto reader = EventStoreReader::Open(identity_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTrajectoriesEqual(GoldenTrajectories(), *restored);
  std::remove(identity_path.c_str());
  std::remove(path.c_str());
}

/// Random scans over a store: object sets (present, absent, empty),
/// windows whose bounds sit exactly on block and trajectory bounds (and
/// one off), open bounds, and inverted windows.
std::vector<ScanOptions> RandomScans(
    const EventStoreReader& reader,
    const std::vector<core::SemanticTrajectory>& trajectories,
    std::uint64_t seed, int count) {
  std::vector<std::int64_t> times;
  for (const BlockMeta& meta : reader.blocks()) {
    times.push_back(meta.min_time);
    times.push_back(meta.max_time);
  }
  std::vector<std::int64_t> objects;
  for (const core::SemanticTrajectory& t : trajectories) {
    times.push_back(t.start().seconds_since_epoch());
    times.push_back(t.end().seconds_since_epoch());
    objects.push_back(t.object().value());
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  Rng rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBounded(n));
  };
  auto pick_time = [&]() {
    const std::int64_t t = times[pick(times.size())];
    const int nudge = static_cast<int>(pick(5));  // 0,1,2 exact; -1; +1
    return Timestamp(nudge == 3 ? t - 1 : nudge == 4 ? t + 1 : t);
  };
  std::vector<ScanOptions> scans;
  for (int s = 0; s < count; ++s) {
    ScanOptions scan;
    switch (pick(4)) {
      case 0:
        break;  // every object
      case 1:
        scan.objects.push_back(ObjectId(objects[pick(objects.size())]));
        break;
      case 2: {
        std::vector<std::int64_t> chosen;
        const std::size_t n = 1 + pick(4);
        for (std::size_t k = 0; k < n; ++k) {
          chosen.push_back(objects[pick(objects.size())]);
        }
        chosen.push_back(objects.back() + 1);  // absent from the store
        std::sort(chosen.begin(), chosen.end());
        chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
        for (const std::int64_t o : chosen) scan.objects.push_back(ObjectId(o));
        break;
      }
      default:
        scan.objects.push_back(ObjectId(objects.back() + 1));  // absent
        break;
    }
    if (pick(3) != 0) scan.min_time = pick_time();
    if (pick(3) != 0) scan.max_time = pick_time();
    if (pick(6) == 0) {  // force an inverted window
      const Timestamp t = pick_time();
      scan.min_time = t + Duration::Seconds(1);
      scan.max_time = t;
    }
    scans.push_back(std::move(scan));
  }
  return scans;
}

TEST(EventStoreLateMaterializationTest, FilteredDecodeEqualsFilteredFullDecode) {
  struct Store {
    const char* name;
    std::vector<core::SemanticTrajectory> trajectories;
    std::size_t rows_per_block;
  };
  const Store stores[] = {
      {"golden, 3 rows per block", GoldenTrajectories(), 3},
      {"golden, one block", GoldenTrajectories(), 4096},
      {"louvre", BuildTrajectories(SimulatedDetections(23)), 40},
  };
  for (const Store& store : stores) {
    SCOPED_TRACE(store.name);
    const std::string path = TempPath("late_materialization_oracle.evst");
    WriterOptions options;
    options.rows_per_block = store.rows_per_block;
    ASSERT_TRUE(WriteTrajectoryStore(path, store.trajectories, options).ok());
    const auto reader = EventStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();

    // The unfiltered decode visits every position, in order, and its
    // builds concatenate to the stored trajectories.
    std::vector<std::vector<core::SemanticTrajectory>> full(
        reader->num_blocks());
    std::vector<core::SemanticTrajectory> concatenated;
    for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
      ASSERT_TRUE(reader
                      ->ReadTrajectoryBlock(i, ScanOptions{},
                                            [&](const TrajectoryView& view) {
                                              EXPECT_EQ(view.position,
                                                        full[i].size());
                                              full[i].push_back(
                                                  view.Build(view.id));
                                            })
                      .ok());
      ASSERT_EQ(full[i].size(), reader->block(i).trajectories);
      concatenated.insert(concatenated.end(), full[i].begin(), full[i].end());
    }
    ExpectTrajectoriesEqual(store.trajectories, concatenated);

    for (const ScanOptions& scan :
         RandomScans(*reader, store.trajectories, 0x5ca9, 300)) {
      std::vector<core::SemanticTrajectory> scanned;
      for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
        std::vector<std::size_t> expected_positions;
        for (std::size_t p = 0; p < full[i].size(); ++p) {
          const core::SemanticTrajectory& t = full[i][p];
          const bool object_ok =
              scan.objects.empty() ||
              std::binary_search(scan.objects.begin(), scan.objects.end(),
                                 t.object());
          const bool time_ok = !scan.EmptyWindow() &&
                               (!scan.min_time || t.end() >= *scan.min_time) &&
                               (!scan.max_time || t.start() <= *scan.max_time);
          if (object_ok && time_ok) expected_positions.push_back(p);
        }

        // Each kept trajectory is visited once, in ascending position;
        // its columns and its build equal the unfiltered decode there.
        std::vector<std::size_t> visited;
        ASSERT_TRUE(reader
                        ->ReadTrajectoryBlock(
                            i, scan,
                            [&](const TrajectoryView& view) {
                              visited.push_back(view.position);
                              ASSERT_LT(view.position, full[i].size());
                              const core::SemanticTrajectory& t =
                                  full[i][view.position];
                              EXPECT_EQ(view.id, t.id());
                              EXPECT_EQ(view.object, t.object());
                              EXPECT_EQ(view.start, t.start());
                              EXPECT_EQ(view.end, t.end());
                              EXPECT_EQ(view.rows, t.trace().size());
                              EXPECT_EQ(view.Annotations(), t.annotations());
                              for (std::size_t r = 0;
                                   r < view.rows && r < t.trace().size();
                                   ++r) {
                                const core::PresenceInterval& p =
                                    t.trace().at(r);
                                EXPECT_EQ(view.Cell(r), p.cell);
                                EXPECT_EQ(view.RowStart(r), p.start());
                                EXPECT_EQ(view.RowEnd(r), p.end());
                                EXPECT_EQ(view.RowDuration(r), p.duration());
                                EXPECT_EQ(view.StayAnnotations(r),
                                          p.annotations);
                                EXPECT_EQ(view.TransitionAnnotations(r),
                                          p.transition_annotations);
                                EXPECT_EQ(view.Tuple(r), p);
                              }
                              const core::SemanticTrajectory built =
                                  view.Build(view.id);
                              ExpectTrajectoriesEqual({t}, {built});
                              scanned.push_back(built);
                            })
                        .ok());
        EXPECT_EQ(visited, expected_positions) << "block " << i;
      }
      // The full scan is the visitor scans' builds, concatenated over
      // its candidate blocks (the others keep nothing).
      const auto read = reader->ReadTrajectories(scan);
      ASSERT_TRUE(read.ok()) << read.status();
      ExpectTrajectoriesEqual(scanned, *read);
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Decode once: DecodeBlock + ScanBlock, and the BlockCache that keeps
// decoded blocks under one byte budget.
// ---------------------------------------------------------------------------

/// The trajectories ScanBlock visits in `block` under `scan`, built.
std::vector<core::SemanticTrajectory> Scanned(const EventStoreReader& reader,
                                              const DecodedBlock& block,
                                              const ScanOptions& scan = {}) {
  std::vector<core::SemanticTrajectory> out;
  const Status status =
      reader.ScanBlock(block, scan, [&out](const TrajectoryView& view) {
        out.push_back(view.Build(view.id));
      });
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

/// What a cold ReadTrajectoryBlock of block `i` visits under `scan`.
std::vector<core::SemanticTrajectory> ColdBlock(const EventStoreReader& reader,
                                                std::size_t i,
                                                const ScanOptions& scan = {}) {
  std::vector<core::SemanticTrajectory> out;
  const Status status =
      reader.ReadTrajectoryBlock(i, scan, [&out](const TrajectoryView& view) {
        out.push_back(view.Build(view.id));
      });
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

TEST(BlockCacheTest, ForgedBlockIsRefusedOnEveryTouchAndNeverResident) {
  const std::string path = TempPath("block_cache_forged_src.evst");
  WriterOptions options;
  options.rows_per_block = 4096;
  ASSERT_TRUE(WriteTrajectoryStore(path, GoldenTrajectories(), options).ok());
  const auto original = io::ReadFile(path);
  ASSERT_TRUE(original.ok());
  // A stay-annotation index past the dictionary, behind a repaired
  // checksum: only the row checks can refuse it.
  const std::string forged =
      ForgeSingleTrajectoryBlock(*original, [](TrajectoryColumns& c) {
        c.stay_dicts[FirstRowOf(c, 5)] = 1000;
      });
  const std::string forged_path = TempPath("block_cache_forged.evst");
  ASSERT_TRUE(io::WriteFile(forged_path, forged).ok());
  const auto reader = EventStoreReader::Open(forged_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->num_blocks(), 1u);

  BlockCache cache(1u << 20);
  for (int touch = 0; touch < 3; ++touch) {
    SCOPED_TRACE(touch);
    const auto fetched = cache.Fetch(*reader, 0);
    ASSERT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(fetched.status().message(),
              "EventStore: dictionary index 1000 out of range");
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.resident_bytes(), 0u);
  }
  // The cold paths refuse it with the same error.
  const auto cold = reader->DecodeBlock(0);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().message(),
            "EventStore: dictionary index 1000 out of range");
  EXPECT_EQ(reader->ReadTrajectories().status().message(),
            cold.status().message());
  // An index past the end is refused without touching the cache.
  const auto out_of_range = cache.Fetch(*reader, 1);
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // The unforged store decodes, stays resident, and hits after that.
  const auto good = EventStoreReader::Open(path);
  ASSERT_TRUE(good.ok()) << good.status();
  const auto first = cache.Fetch(*good, 0);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = cache.Fetch(*good, 0);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), (*first)->resident_bytes);
  ExpectTrajectoriesEqual(GoldenTrajectories(), Scanned(*good, **second));
  std::remove(forged_path.c_str());
  std::remove(path.c_str());
}

TEST(BlockCacheTest, ResidentBytesNeverExceedTheBudget) {
  const std::string path = TempPath("block_cache_budget.evst");
  const auto trajectories = BuildTrajectories(SimulatedDetections(31, 40));
  WriterOptions options;
  options.rows_per_block = 40;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::size_t blocks = reader->num_blocks();
  ASSERT_GE(blocks, 6u);
  std::size_t total = 0, largest = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto block = reader->DecodeBlock(b);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_GT((*block)->resident_bytes, sizeof(DecodedBlock));
    total += (*block)->resident_bytes;
    largest = std::max(largest, (*block)->resident_bytes);
  }

  const std::size_t budget = std::max(total / 3, largest);
  BlockCache cache(budget);
  Rng rng(0xb10c);
  for (int touch = 0; touch < 400; ++touch) {
    const auto b = static_cast<std::size_t>(rng.NextBounded(blocks));
    const auto fetched = cache.Fetch(*reader, b);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    ASSERT_LE(cache.resident_bytes(), budget) << "touch " << touch;
    if (touch % 50 == 0) {
      ExpectTrajectoriesEqual(ColdBlock(*reader, b), Scanned(*reader, **fetched));
    }
  }
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 400u);
  EXPECT_EQ(stats.inserts, stats.misses);  // one thread: every miss inserts
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.inserts - stats.evictions, cache.size());

  // A block larger than the budget is returned but never kept.
  BlockCache tiny(sizeof(DecodedBlock));
  const auto big = tiny.Fetch(*reader, 0);
  ASSERT_TRUE(big.ok()) << big.status();
  ExpectTrajectoriesEqual(ColdBlock(*reader, 0), Scanned(*reader, **big));
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_EQ(tiny.resident_bytes(), 0u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(BlockCacheTest, StoresWithDifferentContentsNeverAlias) {
  // Same shape, one block each, different cells: only the contents
  // tell them apart.
  const std::string path_a = TempPath("block_cache_alias_a.evst");
  const std::string path_b = TempPath("block_cache_alias_b.evst");
  const auto a_trajectories = OneRowTrajectories(
      ObjectId(1), CellId(10), {{0, 10}, {20, 30}, {40, 50}});
  const auto b_trajectories = OneRowTrajectories(
      ObjectId(1), CellId(11), {{0, 10}, {20, 30}, {40, 50}});
  ASSERT_TRUE(WriteTrajectoryStore(path_a, a_trajectories).ok());
  ASSERT_TRUE(WriteTrajectoryStore(path_b, b_trajectories).ok());
  const auto a = EventStoreReader::Open(path_a);
  const auto b = EventStoreReader::Open(path_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->file_bytes(), b->file_bytes());
  ASSERT_NE(a->trailer_checksum(), b->trailer_checksum());

  BlockCache cache(1u << 20);
  for (int round = 0; round < 2; ++round) {
    const auto from_a = cache.Fetch(*a, 0);
    const auto from_b = cache.Fetch(*b, 0);
    ASSERT_TRUE(from_a.ok() && from_b.ok());
    EXPECT_NE(from_a->get(), from_b->get());
    ExpectTrajectoriesEqual(a_trajectories, Scanned(*a, **from_a));
    ExpectTrajectoriesEqual(b_trajectories, Scanned(*b, **from_b));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // A second reader of the same file shares the first one's block.
  const auto a_again = EventStoreReader::Open(path_a);
  ASSERT_TRUE(a_again.ok());
  const auto shared = cache.Fetch(*a_again, 0);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(cache.stats().hits, 3u);
  ExpectTrajectoriesEqual(a_trajectories, Scanned(*a_again, **shared));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(DecodedBlockTest, ScanBlockRefusesABlockCheckedAgainstAnotherDictionary) {
  // The views resolve annotation indices through the scanning reader's
  // dictionary unchecked, so a block whose indices were checked against
  // a dictionary of another size (another store's block, or a resident
  // block under a colliding cache key) must not reach a visitor.
  const std::string small_path = TempPath("decoded_block_dict_small.evst");
  const std::string large_path = TempPath("decoded_block_dict_large.evst");
  ASSERT_TRUE(WriteTrajectoryStore(small_path,
                                   OneRowTrajectories(ObjectId(1), CellId(10),
                                                      {{0, 10}, {20, 30}}))
                  .ok());
  ASSERT_TRUE(WriteTrajectoryStore(large_path, GoldenTrajectories()).ok());
  const auto small = EventStoreReader::Open(small_path);
  const auto large = EventStoreReader::Open(large_path);
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_LT(small->dictionary().size(), large->dictionary().size());

  const auto from_large = large->DecodeBlock(0);
  ASSERT_TRUE(from_large.ok()) << from_large.status();
  EXPECT_EQ((*from_large)->dictionary_size, large->dictionary().size());
  int visited = 0;
  const Status refused = small->ScanBlock(
      **from_large, {}, [&visited](const TrajectoryView&) { ++visited; });
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  EXPECT_EQ(visited, 0);

  // Its own reader, and any reader of the same file, scan it.
  const auto large_again = EventStoreReader::Open(large_path);
  ASSERT_TRUE(large_again.ok());
  ExpectTrajectoriesEqual(GoldenTrajectories(),
                          Scanned(*large_again, **from_large));
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
}

TEST(DecodedBlockTest, ScanBlockEqualsReadTrajectoryBlockUnderEveryScan) {
  const std::string path = TempPath("decoded_block_scan.evst");
  const auto trajectories = BuildTrajectories(SimulatedDetections(17, 30));
  WriterOptions options;
  options.rows_per_block = 64;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::vector<ScanOptions> scans =
      RandomScans(*reader, trajectories, 0xdec0de, 40);
  scans.emplace_back();
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    const auto block = reader->DecodeBlock(i);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ((*block)->rows, reader->block(i).rows);
    EXPECT_EQ((*block)->trajectories, reader->block(i).trajectories);
    for (const ScanOptions& scan : scans) {
      // ReadTrajectoryBlock skips blocks the footer stats rule out;
      // ScanBlock's trajectory filter keeps nothing of them either.
      ExpectTrajectoriesEqual(ColdBlock(*reader, i, scan),
                              Scanned(*reader, **block, scan));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sitm::storage
