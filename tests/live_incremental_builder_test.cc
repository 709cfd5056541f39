// IncrementalBuilder unit behavior: config validation, all-or-nothing
// admission, watermark admission and finalization, arrival-order
// insensitivity, cleaning identical to the batch builder, bounded-
// memory eviction, Drain, and footprint peaks. (The full-stack
// batch-equivalence contract lives in live_equivalence_property_test.)
#include "live/incremental_builder.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/builder.h"
#include "indoor/nrg.h"

namespace sitm::live {
namespace {

core::RawDetection D(std::int64_t object, std::int64_t cell,
                     std::int64_t start, std::int64_t end) {
  return core::RawDetection(ObjectId(object), CellId(cell), Timestamp(start),
                            Timestamp(end));
}

IncrementalOptions TightOptions() {
  IncrementalOptions options;
  options.allowed_lateness = Duration::Seconds(60);
  return options;
}

TEST(IncrementalBuilderConfigTest, EmptyDefaultAnnotationsRejected) {
  IncrementalOptions options;
  options.builder.default_annotations = {};
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  const Status status = builder.Ingest({D(1, 1, 0, 10)}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderConfigTest, RulesNeedAGraph) {
  IncrementalOptions options;
  options.rules = {core::AnnotateStopsAndMoves(
      Duration::Minutes(5), {core::AnnotationKind::kBehavior, "stop"},
      {core::AnnotationKind::kBehavior, "move"})};
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  EXPECT_EQ(builder.Ingest({D(1, 1, 0, 10)}, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderConfigTest, InferenceNeedsAGraph) {
  IncrementalOptions options;
  options.infer_hidden_passages = true;
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  EXPECT_EQ(builder.Drain(&out).code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderTest, InvalidIdsRejected) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  core::RawDetection bad;  // default ids are invalid
  bad.start = Timestamp(0);
  bad.end = Timestamp(10);
  EXPECT_EQ(builder.Ingest({bad}, &out).code(),
            StatusCode::kInvalidArgument);
}

/// Every IncrementalStats field, for whole-struct comparison.
std::vector<std::int64_t> StatsFields(const IncrementalStats& s) {
  const core::BuildReport& b = s.build;
  return {s.watermark.seconds_since_epoch(),
          s.has_watermark,
          static_cast<std::int64_t>(s.records_in),
          static_cast<std::int64_t>(s.late_dropped),
          static_cast<std::int64_t>(s.evicted_objects),
          static_cast<std::int64_t>(s.finalized),
          static_cast<std::int64_t>(s.open_objects),
          static_cast<std::int64_t>(s.buffered_detections),
          static_cast<std::int64_t>(s.peak_open_objects),
          static_cast<std::int64_t>(s.peak_buffered_detections),
          static_cast<std::int64_t>(b.records_in),
          static_cast<std::int64_t>(b.zero_duration_dropped),
          static_cast<std::int64_t>(b.overlaps_clipped),
          static_cast<std::int64_t>(b.contained_dropped),
          static_cast<std::int64_t>(b.graph_inconsistent_dropped),
          static_cast<std::int64_t>(b.merged_same_cell),
          static_cast<std::int64_t>(b.objects_seen),
          static_cast<std::int64_t>(b.trajectories_out)};
}

TEST(IncrementalBuilderTest, RejectedBatchAdmitsNothing) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  core::RawDetection bad = D(2, 1, 500, 600);
  bad.cell = CellId();  // invalid, after a valid detection
  EXPECT_EQ(builder.Ingest({D(1, 1, 1000, 1100), bad}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatsFields(builder.stats()),
            StatsFields(IncrementalBuilder(TightOptions()).stats()));
  ASSERT_TRUE(builder.Drain(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(IncrementalBuilderTest, CleaningMatchesTheBatchBuilder) {
  // Cells 10 and 20 are adjacent; 30 is unreachable from both.
  indoor::Nrg graph;
  for (int id : {10, 20, 30}) {
    ASSERT_TRUE(graph
                    .AddCell(indoor::CellSpace(CellId(id), "c",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  ASSERT_TRUE(graph
                  .AddSymmetricEdge(CellId(10), CellId(20),
                                    indoor::EdgeType::kAccessibility)
                  .ok());
  IncrementalOptions options;
  options.builder.graph = &graph;
  options.builder.drop_graph_inconsistent = true;

  // One stream through every cleaning branch the batch builder counts.
  // (An overlap clip that leaves nothing cannot happen at whole-second
  // resolution: a detection that is not contained ends at least one
  // second past the previous end, where the clip moves its start. The
  // nearest case, a clip down to a single instant, is kept.)
  const std::vector<core::RawDetection> stream = {
      D(1, 10, 0, 100),        // kept
      D(1, 10, 20, 80),        // contained in the previous detection
      D(1, 20, 60, 60),        // zero duration
      D(1, 20, 90, 200),       // overlap: clipped to start at 101
      D(1, 30, 300, 400),      // teleport: 30 is unreachable from 20
      D(1, 20, 450, 500),      // same cell within the merge gap
      D(1, 10, 500, 501),      // overlap: clipped to the instant 501
      D(1, 10, 10000, 10100),  // past the session gap: new trajectory
      D(1, 20, 10150, 10200),
      D(2, 20, 50, 150),
      D(2, 20, 150, 160),      // clipped to 151, then merged
      D(2, 10, 170, 170),      // zero duration
      D(2, 30, 5000, 5100),    // teleport
  };
  core::TrajectoryBuilder batch(options.builder);
  auto reference = batch.Build(stream);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const core::BuildReport& expected = batch.report();
  ASSERT_GT(expected.zero_duration_dropped, 0u);
  ASSERT_GT(expected.contained_dropped, 0u);
  ASSERT_GT(expected.overlaps_clipped, 0u);
  ASSERT_GT(expected.graph_inconsistent_dropped, 0u);
  ASSERT_GT(expected.merged_same_cell, 0u);
  ASSERT_EQ(reference->size(), 3u);  // object 1 splits into two visits

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<core::RawDetection> arrival = stream;
    rng.Shuffle(&arrival);
    // Just enough lateness to admit the worst regression, so the
    // watermark consumes the stream a little at a time.
    Duration lateness = Duration::Seconds(1);
    Timestamp max_start = arrival.front().start;
    for (const core::RawDetection& d : arrival) {
      max_start = std::max(max_start, d.start);
      lateness = std::max(lateness, max_start - d.start + Duration::Seconds(1));
    }
    options.allowed_lateness = lateness;

    IncrementalBuilder builder(options);
    std::vector<core::SemanticTrajectory> out;
    for (std::size_t i = 0; i < arrival.size();) {
      const std::size_t end = std::min(
          arrival.size(), i + static_cast<std::size_t>(rng.NextInt(1, 3)));
      ASSERT_TRUE(builder
                      .Ingest({arrival.begin() + static_cast<std::ptrdiff_t>(i),
                               arrival.begin() +
                                   static_cast<std::ptrdiff_t>(end)},
                              &out)
                      .ok());
      i = end;
    }
    ASSERT_TRUE(builder.Drain(&out).ok());
    EXPECT_EQ(builder.stats().late_dropped, 0u);

    std::sort(out.begin(), out.end(),
              [](const core::SemanticTrajectory& a,
                 const core::SemanticTrajectory& b) {
                if (a.object() != b.object()) {
                  return a.object().value() < b.object().value();
                }
                return a.start() < b.start();
              });
    ASSERT_EQ(out.size(), reference->size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].object(), (*reference)[i].object()) << i;
      EXPECT_EQ(out[i].trace().intervals(),
                (*reference)[i].trace().intervals())
          << i;
      EXPECT_EQ(out[i].annotations(), (*reference)[i].annotations()) << i;
    }
    const core::BuildReport& live = builder.stats().build;
    EXPECT_EQ(live.zero_duration_dropped, expected.zero_duration_dropped);
    EXPECT_EQ(live.contained_dropped, expected.contained_dropped);
    EXPECT_EQ(live.overlaps_clipped, expected.overlaps_clipped);
    EXPECT_EQ(live.graph_inconsistent_dropped,
              expected.graph_inconsistent_dropped);
    EXPECT_EQ(live.merged_same_cell, expected.merged_same_cell);
  }
}

TEST(IncrementalBuilderTest, WatermarkFlushesStaleTraceMidStream) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 0, 100), D(1, 2, 200, 300)}, &out).ok());
  // Nothing can finalize yet: the watermark (200 - 60 = 140) consumes
  // the first detection into the open trace but cannot flush it.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(builder.stats().buffered_detections, 1u);

  // A far-future detection pushes the watermark way past the session
  // gap: the buffered prefix is consumed and the stale trace flushes,
  // while the new detection itself stays buffered.
  ASSERT_TRUE(builder.Ingest({D(1, 3, 20000, 20100)}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(1));
  ASSERT_EQ(out[0].trace().intervals().size(), 2u);
  EXPECT_EQ(out[0].trace().intervals()[0].cell, CellId(1));
  EXPECT_EQ(out[0].trace().intervals()[1].cell, CellId(2));
  EXPECT_EQ(builder.stats().finalized, 1u);
  EXPECT_EQ(builder.stats().buffered_detections, 1u);
  EXPECT_TRUE(builder.stats().has_watermark);
  EXPECT_EQ(builder.stats().watermark, Timestamp(20000 - 60));
}

TEST(IncrementalBuilderTest, LateArrivalsAreDroppedAndCounted) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 10000, 10100)}, &out).ok());
  // Watermark is now 9940; these start before it.
  ASSERT_TRUE(builder.Ingest({D(1, 1, 50, 60), D(2, 4, 9000, 9100)}, &out)
                  .ok());
  EXPECT_EQ(builder.stats().late_dropped, 2u);
  EXPECT_EQ(builder.stats().records_in, 3u);
  // A late drop admits no state for its object.
  EXPECT_EQ(builder.stats().open_objects, 1u);
}

TEST(IncrementalBuilderTest, OutOfOrderMatchesInOrder) {
  const std::vector<core::RawDetection> in_order = {
      D(1, 1, 0, 100),    D(1, 2, 150, 250),  D(1, 2, 260, 300),
      D(2, 5, 50, 120),   D(2, 6, 20000, 20200), D(1, 3, 30000, 30100),
  };
  std::vector<core::RawDetection> shuffled = {
      in_order[4], in_order[1], in_order[5],
      in_order[0], in_order[3], in_order[2],
  };

  const auto run = [](const std::vector<core::RawDetection>& stream) {
    IncrementalOptions options;
    options.allowed_lateness = Duration::Hours(24);  // admit everything
    IncrementalBuilder builder(options);
    std::vector<core::SemanticTrajectory> out;
    for (const core::RawDetection& d : stream) {
      EXPECT_TRUE(builder.Ingest({d}, &out).ok());
    }
    EXPECT_TRUE(builder.Drain(&out).ok());
    // Normalize finalization order to (object, start).
    std::sort(out.begin(), out.end(),
              [](const core::SemanticTrajectory& a,
                 const core::SemanticTrajectory& b) {
                if (a.object() != b.object()) {
                  return a.object().value() < b.object().value();
                }
                return a.start() < b.start();
              });
    return out;
  };

  const std::vector<core::SemanticTrajectory> a = run(in_order);
  const std::vector<core::SemanticTrajectory> b = run(shuffled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object(), b[i].object()) << i;
    EXPECT_EQ(a[i].trace().intervals(), b[i].trace().intervals()) << i;
    EXPECT_EQ(a[i].annotations(), b[i].annotations()) << i;
  }
}

TEST(IncrementalBuilderTest, EvictionBoundsOpenObjects) {
  IncrementalOptions options = TightOptions();
  options.max_open_objects = 2;
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 0, 100)}, &out).ok());
  ASSERT_TRUE(builder.Ingest({D(2, 1, 10, 110)}, &out).ok());
  ASSERT_TRUE(builder.Ingest({D(3, 1, 20, 120)}, &out).ok());
  // Object 1 was the least recently active: force-finalized + forgotten.
  EXPECT_EQ(builder.stats().evicted_objects, 1u);
  EXPECT_EQ(builder.stats().open_objects, 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(1));
  EXPECT_LE(builder.stats().peak_open_objects, 3u);
}

TEST(IncrementalBuilderTest, DrainFlushesEverythingAndResets) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(
      builder.Ingest({D(1, 1, 0, 100), D(2, 2, 50, 150)}, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(builder.Drain(&out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(builder.stats().open_objects, 0u);
  EXPECT_EQ(builder.stats().buffered_detections, 0u);
  EXPECT_EQ(builder.stats().finalized, 2u);

  // The builder stays usable: a fresh object streams from a clean slate.
  out.clear();
  ASSERT_TRUE(builder.Ingest({D(9, 1, 40000, 40100)}, &out).ok());
  ASSERT_TRUE(builder.Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(9));
}

TEST(IncrementalBuilderTest, PeaksTrackTheHighWaterMark) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder
                  .Ingest({D(1, 1, 0, 10), D(2, 1, 1, 11), D(3, 1, 2, 12),
                           D(4, 1, 3, 13)},
                          &out)
                  .ok());
  EXPECT_EQ(builder.stats().peak_open_objects, 4u);
  EXPECT_EQ(builder.stats().peak_buffered_detections, 4u);
  ASSERT_TRUE(builder.Drain(&out).ok());
  // Draining empties the footprint but never lowers the peaks.
  EXPECT_EQ(builder.stats().peak_open_objects, 4u);
  EXPECT_EQ(builder.stats().peak_buffered_detections, 4u);
}

TEST(IncrementalBuilderTest, ProvisionalIdsAdvanceInFinalizationOrder) {
  IncrementalOptions options = TightOptions();
  options.builder.first_trajectory_id = TrajectoryId(100);
  IncrementalBuilder builder(options);
  EXPECT_EQ(builder.next_id(), TrajectoryId(100));
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(
      builder.Ingest({D(1, 1, 0, 100), D(2, 2, 50, 150)}, &out).ok());
  ASSERT_TRUE(builder.Drain(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id(), TrajectoryId(100));
  EXPECT_EQ(out[1].id(), TrajectoryId(101));
  EXPECT_EQ(builder.next_id(), TrajectoryId(102));
}

}  // namespace
}  // namespace sitm::live
