// IncrementalBuilder unit behavior: config validation, all-or-nothing
// admission, watermark admission and finalization, arrival-order
// insensitivity, cleaning identical to the batch builder, retirement
// of finished objects (open state bounded by recent activity, the graph
// filter across a retirement), Drain, footprint peaks, sweeps that
// visit only objects with work, and a differential check of the
// indexed sweep against a full-sweep oracle. (The full-stack batch-equivalence
// contract lives in live_equivalence_property_test.)
#include "live/incremental_builder.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
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
          static_cast<std::int64_t>(s.retired_objects),
          static_cast<std::int64_t>(s.finalized),
          static_cast<std::int64_t>(s.objects_swept),
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

TEST(IncrementalBuilderTest, InvertedDetectionRejectedWhenZeroDurationIsKept) {
  // Nothing in cleaning drops a detection that ends before it starts
  // once zero-duration detections are kept, so admission rejects the
  // batch instead of letting it reach trace assembly.
  IncrementalOptions options = TightOptions();
  options.builder.drop_zero_duration = false;
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  EXPECT_EQ(builder.Ingest({D(1, 1, 0, 100), D(2, 1, 200, 150)}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatsFields(builder.stats()),
            StatsFields(IncrementalBuilder(options).stats()));

  // By default it is a zero-duration detection: dropped and counted.
  IncrementalBuilder dropping(TightOptions());
  ASSERT_TRUE(dropping.Ingest({D(2, 1, 200, 150)}, &out).ok());
  ASSERT_TRUE(dropping.Drain(&out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dropping.stats().build.zero_duration_dropped, 1u);
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

/// Sorts trajectories by (object, start): batch order, for comparing a
/// live build against a batch one.
void SortByObjectAndStart(std::vector<core::SemanticTrajectory>* out) {
  std::sort(out->begin(), out->end(),
            [](const core::SemanticTrajectory& a,
               const core::SemanticTrajectory& b) {
              if (a.object() != b.object()) {
                return a.object().value() < b.object().value();
              }
              return a.start() < b.start();
            });
}

TEST(IncrementalBuilderTest, GraphFilterSurvivesRetirement) {
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
  IncrementalOptions options = TightOptions();  // 60 s lateness, 2 h gap
  options.builder.graph = &graph;
  options.builder.drop_graph_inconsistent = true;
  const core::RawDetection first_visit = D(1, 10, 0, 100);
  const core::RawDetection clock = D(2, 20, 20000, 20100);
  // Object 1 returns in a cell its last kept one (10) cannot reach.
  const core::RawDetection return_visit = D(1, 30, 20050, 20150);

  core::TrajectoryBuilder batch(options.builder);
  const auto reference = batch.Build({first_visit, clock, return_visit});
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(batch.report().graph_inconsistent_dropped, 1u);

  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({first_visit}, &out).ok());
  ASSERT_TRUE(builder.Ingest({clock}, &out).ok());
  // The watermark (19940) flushed object 1's visit and retired it.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(builder.stats().retired_objects, 1u);
  EXPECT_EQ(builder.stats().open_objects, 1u);
  ASSERT_TRUE(builder.Ingest({return_visit}, &out).ok());
  ASSERT_TRUE(builder.Drain(&out).ok());

  SortByObjectAndStart(&out);
  ASSERT_EQ(out.size(), reference->size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].object(), (*reference)[i].object()) << i;
    EXPECT_EQ(out[i].trace().intervals(), (*reference)[i].trace().intervals())
        << i;
  }
  EXPECT_EQ(builder.stats().build.graph_inconsistent_dropped,
            batch.report().graph_inconsistent_dropped);
}

/// The most distinct objects with a detection meeting one event-time
/// window of length `window`. Detection [s, e] meets [t, t + window]
/// iff t lies in [s - window, max(s, e)], so this is the deepest
/// overlap of those t-ranges, merged per object.
std::size_t MaxObjectsInWindow(
    const std::vector<core::RawDetection>& detections, Duration window) {
  std::map<ObjectId, std::vector<std::pair<Timestamp, Timestamp>>> ranges;
  for (const core::RawDetection& d : detections) {
    ranges[d.object].emplace_back(d.start - window, std::max(d.start, d.end));
  }
  // (t, 0) opens a range and (t, 1) closes one; opens sort first, so
  // ranges that touch overlap.
  std::vector<std::pair<Timestamp, int>> events;
  for (auto& [object, object_ranges] : ranges) {
    std::sort(object_ranges.begin(), object_ranges.end());
    Timestamp lo = object_ranges.front().first;
    Timestamp hi = object_ranges.front().second;
    for (const auto& [from, to] : object_ranges) {
      if (hi < from) {
        events.emplace_back(lo, 0);
        events.emplace_back(hi, 1);
        lo = from;
      }
      hi = std::max(hi, to);
    }
    events.emplace_back(lo, 0);
    events.emplace_back(hi, 1);
  }
  std::sort(events.begin(), events.end());
  std::size_t depth = 0, deepest = 0;
  for (const auto& [t, kind] : events) {
    if (kind == 0) {
      deepest = std::max(deepest, ++depth);
    } else {
      --depth;
    }
  }
  return deepest;
}

TEST(IncrementalBuilderTest, OpenObjectsStayWithinTheActivityWindow) {
  // 100k visitors, one visit each, a visit starting every 10 minutes:
  // open state must follow the visitors active around the watermark,
  // not everyone seen.
  constexpr std::int64_t kVisitors = 100000;
  constexpr std::size_t kBatch = 100;
  std::vector<core::RawDetection> stream;
  for (std::int64_t v = 1; v <= kVisitors; ++v) {
    const std::int64_t t = 600 * v;
    stream.push_back(D(v, 1, t, t + 300));
    stream.push_back(D(v, 2, t + 310, t + 500));
  }
  const IncrementalOptions options = TightOptions();
  const std::size_t bound =
      MaxObjectsInWindow(stream, options.allowed_lateness +
                                     options.builder.session_gap) +
      kBatch;

  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    ASSERT_TRUE(builder
                    .Ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                             stream.begin() +
                                 static_cast<std::ptrdiff_t>(i + kBatch)},
                            &out)
                    .ok());
    ASSERT_LE(builder.stats().open_objects, bound) << i;
  }
  EXPECT_LE(builder.stats().peak_open_objects, bound);

  // A detection past the last visit's session gap retires everyone.
  const std::int64_t past = 600 * kVisitors + 500 + 7200 + 60 + 1;
  ASSERT_TRUE(builder.Ingest({D(kVisitors + 1, 1, past, past + 10)}, &out)
                  .ok());
  EXPECT_EQ(builder.stats().retired_objects,
            static_cast<std::size_t>(kVisitors));
  EXPECT_EQ(builder.stats().open_objects, 1u);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kVisitors));
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

TEST(IncrementalBuilderTest, TiedDetectionsBuildTheSameInAnyArrivalOrder) {
  // One object, two detections equal in (start, end) but not in cell:
  // cleaning keeps whichever sorts first and drops the other as
  // contained, so the sort must not leave the tie to arrival order.
  const core::RawDetection a = D(1, 20, 100, 200);
  const core::RawDetection b = D(1, 10, 100, 200);
  const auto check = [](const std::vector<core::SemanticTrajectory>& out) {
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].trace().size(), 1u);
    EXPECT_EQ(out[0].trace().intervals()[0].cell, CellId(10));
  };
  for (const auto& order : {std::vector<core::RawDetection>{a, b},
                            std::vector<core::RawDetection>{b, a}}) {
    core::TrajectoryBuilder batch;
    const auto built = batch.Build(order);
    ASSERT_TRUE(built.ok()) << built.status();
    check(*built);

    IncrementalBuilder one_batch(TightOptions());
    std::vector<core::SemanticTrajectory> out;
    ASSERT_TRUE(one_batch.Ingest(order, &out).ok());
    ASSERT_TRUE(one_batch.Drain(&out).ok());
    check(out);
    EXPECT_EQ(out[0].trace().intervals(), (*built)[0].trace().intervals());

    IncrementalBuilder two_batches(TightOptions());
    out.clear();
    ASSERT_TRUE(two_batches.Ingest({order[0]}, &out).ok());
    ASSERT_TRUE(two_batches.Ingest({order[1]}, &out).ok());
    // Released by the watermark mid-stream, not by Drain.
    ASSERT_TRUE(two_batches.Ingest({D(2, 1, 20000, 20100)}, &out).ok());
    check(out);
  }
}

TEST(IncrementalBuilderTest, SweepVisitsOnlyObjectsWithWork) {
  IncrementalBuilder builder(TightOptions());  // 60 s lateness, 2 h gap
  std::vector<core::SemanticTrajectory> out;
  std::vector<core::RawDetection> idle;
  for (std::int64_t object = 1; object <= 10000; ++object) {
    idle.push_back(D(object, 1, 0, 10));
  }
  ASSERT_TRUE(builder.Ingest(idle, &out).ok());
  EXPECT_EQ(builder.stats().objects_swept, 0u);

  // One active detection past the session gap: each idle object is
  // visited once, consuming its detection and flushing the trace.
  const ObjectId active(20000);
  ASSERT_TRUE(builder.Ingest({D(active.value(), 2, 10000, 10050)}, &out).ok());
  EXPECT_EQ(out.size(), 10000u);
  EXPECT_EQ(builder.stats().objects_swept, 10000u);

  // The idle objects are retired; only the active one has work.
  EXPECT_EQ(builder.stats().retired_objects, 10000u);
  for (std::int64_t k = 1; k <= 100; ++k) {
    const std::size_t before = builder.stats().objects_swept;
    const std::int64_t start = 10000 + 100 * k;
    ASSERT_TRUE(
        builder.Ingest({D(active.value(), 2 + k % 2, start, start + 50)}, &out)
            .ok());
    EXPECT_LE(builder.stats().objects_swept - before, 1u) << k;
  }
  const IncrementalStats& stats = builder.stats();
  EXPECT_EQ(stats.open_objects, 1u);
  EXPECT_LE(stats.objects_swept, stats.records_in + stats.finalized);
}

/// The full-sweep builder the due index replaced, kept as a brute-force
/// oracle: every sweep visits every tracked object in id order, then
/// retires every object left with nothing pending and no open trace.
/// It keeps every retired object's last kept detection, graph filter or
/// not, so a builder that keeps it only for the graph filter is checked
/// against one that never forgets it. stats().objects_swept counts only
/// the visits that consumed or flushed something — exactly the visits
/// the indexed builder makes.
class FullSweepOracle {
 public:
  explicit FullSweepOracle(IncrementalOptions options)
      : options_(std::move(options)), assembler_(options_.builder) {}

  Status Ingest(const std::vector<core::RawDetection>& batch,
                std::vector<core::SemanticTrajectory>* finalized) {
    SITM_RETURN_IF_ERROR(options_.Validate());
    for (const core::RawDetection& d : batch) {
      if (!d.object.valid() || !d.cell.valid()) {
        return Status::InvalidArgument("invalid id");
      }
    }
    stats_.records_in += batch.size();
    const std::size_t first = finalized->size();
    for (const core::RawDetection& d : batch) {
      if (stats_.has_watermark && d.start < stats_.watermark) {
        ++stats_.late_dropped;
        continue;
      }
      const auto [it, tracked_anew] = objects_.try_emplace(d.object);
      State& state = it->second;
      if (tracked_anew) state.open.last_kept = retired_last_kept_[d.object];
      state.pending.push_back(d);
      ++stats_.buffered_detections;
      if (!has_max_start_ || d.start > max_start_) {
        has_max_start_ = true;
        max_start_ = d.start;
      }
    }
    UpdateFootprint();
    if (has_max_start_) {
      stats_.watermark = max_start_ - options_.allowed_lateness;
      stats_.has_watermark = true;
    }
    if (stats_.has_watermark) {
      for (auto& [object, state] : objects_) {
        const std::size_t buffered = stats_.buffered_detections;
        const std::size_t emitted = finalized->size();
        SITM_RETURN_IF_ERROR(ConsumeReady(object, state, stats_.watermark,
                                          /*consume_all=*/false, finalized));
        if (!state.open.trace.empty() &&
            stats_.watermark - state.open.trace.end() >
                options_.builder.session_gap) {
          SITM_RETURN_IF_ERROR(
              assembler_.Flush(object, state.open, finalized));
        }
        if (stats_.buffered_detections != buffered ||
            finalized->size() != emitted) {
          ++stats_.objects_swept;
        }
      }
      for (auto it = objects_.begin(); it != objects_.end();) {
        if (it->second.pending.empty() && it->second.open.trace.empty()) {
          retired_last_kept_[it->first] = it->second.open.last_kept;
          it = objects_.erase(it);
          ++stats_.retired_objects;
        } else {
          ++it;
        }
      }
    }
    return Finalize(first, finalized);
  }

  Status Drain(std::vector<core::SemanticTrajectory>* finalized) {
    SITM_RETURN_IF_ERROR(options_.Validate());
    const std::size_t first = finalized->size();
    for (auto& [object, state] : objects_) {
      SITM_RETURN_IF_ERROR(ConsumeReady(object, state, Timestamp(),
                                        /*consume_all=*/true, finalized));
      SITM_RETURN_IF_ERROR(assembler_.Flush(object, state.open, finalized));
    }
    objects_.clear();
    retired_last_kept_.clear();
    stats_.buffered_detections = 0;
    return Finalize(first, finalized);
  }

  const IncrementalStats& stats() const { return stats_; }

 private:
  struct State {
    std::vector<core::RawDetection> pending;
    core::OpenObject open;
  };

  Status ConsumeReady(ObjectId object, State& state, Timestamp watermark,
                      bool consume_all,
                      std::vector<core::SemanticTrajectory>* out) {
    std::sort(state.pending.begin(), state.pending.end(),
              core::DetectionBefore);
    std::size_t consumed = 0;
    while (consumed < state.pending.size() &&
           (consume_all || state.pending[consumed].start < watermark)) {
      SITM_RETURN_IF_ERROR(
          assembler_.Add(object, state.open, state.pending[consumed], out));
      ++consumed;
    }
    state.pending.erase(state.pending.begin(),
                        state.pending.begin() +
                            static_cast<std::ptrdiff_t>(consumed));
    stats_.buffered_detections -= consumed;
    return Status::OK();
  }

  Status Finalize(std::size_t first,
                  std::vector<core::SemanticTrajectory>* out) {
    core::EnrichmentReport enrichment;
    core::InferenceReport inference;
    for (std::size_t i = first; i < out->size(); ++i) {
      SITM_RETURN_IF_ERROR(
          options_.Apply(&(*out)[i], &enrichment, &inference));
    }
    stats_.finalized += out->size() - first;
    stats_.build = assembler_.report();
    UpdateFootprint();
    return Status::OK();
  }

  void UpdateFootprint() {
    stats_.open_objects = objects_.size();
    stats_.peak_open_objects =
        std::max(stats_.peak_open_objects, stats_.open_objects);
    stats_.peak_buffered_detections = std::max(
        stats_.peak_buffered_detections, stats_.buffered_detections);
  }

  IncrementalOptions options_;
  core::Assembler assembler_;
  std::map<ObjectId, State> objects_;
  std::map<ObjectId, std::optional<core::RawDetection>> retired_last_kept_;
  bool has_max_start_ = false;
  Timestamp max_start_;
  IncrementalStats stats_;
};

/// A random stream in batches: busy objects revisiting across session
/// gaps, idle objects seen once that only ever time out by session gap,
/// duplicates, zero-length detections, (start, end) ties across cells,
/// and arrivals late enough to be dropped.
std::vector<std::vector<core::RawDetection>> RandomBatches(Rng& rng) {
  std::vector<std::vector<core::RawDetection>> batches;
  std::vector<core::RawDetection> sent;
  std::int64_t now = 0;
  std::int64_t next_idle = 100;
  const std::int64_t num_batches = rng.NextInt(5, 40);
  for (std::int64_t b = 0; b < num_batches; ++b) {
    std::vector<core::RawDetection> batch;
    const std::int64_t size = rng.NextInt(1, 12);
    for (std::int64_t i = 0; i < size; ++i) {
      const double kind = rng.NextDouble();
      core::RawDetection d;
      if (kind < 0.1 && !sent.empty()) {  // duplicate
        d = sent[rng.NextBounded(sent.size())];
      } else if (kind < 0.2 && !sent.empty()) {  // tie in another cell
        d = sent[rng.NextBounded(sent.size())];
        d.cell = CellId(d.cell.value() % 4 + 1);
      } else {
        const std::int64_t object =
            kind < 0.3 ? next_idle++ : rng.NextInt(1, 6);
        // Up to 900 s behind `now` against 600 s of lateness.
        const std::int64_t start = now - rng.NextInt(0, 900);
        d = D(object, rng.NextInt(1, 4), start,
              start + rng.NextInt(0, 400));
      }
      batch.push_back(d);
      sent.push_back(d);
    }
    batches.push_back(std::move(batch));
    // Mostly small steps; now and then past the 1800 s session gap.
    now += rng.NextBool(0.15) ? rng.NextInt(2000, 5000) : rng.NextInt(0, 500);
  }
  return batches;
}

void ExpectSameTrajectories(const std::vector<core::SemanticTrajectory>& a,
                            const std::vector<core::SemanticTrajectory>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id()) << i;
    EXPECT_EQ(a[i].object(), b[i].object()) << i;
    EXPECT_EQ(a[i].trace().intervals(), b[i].trace().intervals()) << i;
    EXPECT_EQ(a[i].annotations(), b[i].annotations()) << i;
  }
}

TEST(IncrementalBuilderTest, IndexedSweepMatchesTheFullSweepOracle) {
  // Cells 1-2-3 form a corridor; 4 is unreachable from all of them.
  indoor::Nrg graph;
  for (int id = 1; id <= 4; ++id) {
    ASSERT_TRUE(graph
                    .AddCell(indoor::CellSpace(CellId(id), "c",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  for (int id : {1, 2}) {
    ASSERT_TRUE(graph
                    .AddSymmetricEdge(CellId(id), CellId(id + 1),
                                      indoor::EdgeType::kAccessibility)
                    .ok());
  }
  std::size_t late = 0, retired = 0, swept = 0, graph_dropped = 0;
  for (const bool graph_filter : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " graph filter " << graph_filter);
      Rng rng(seed);
      IncrementalOptions options;
      options.allowed_lateness = Duration::Seconds(600);
      options.builder.session_gap = Duration::Seconds(1800);
      if (graph_filter) {
        options.builder.graph = &graph;
        options.builder.drop_graph_inconsistent = true;
      }
      IncrementalBuilder builder(options);
      FullSweepOracle oracle(options);
      std::vector<core::SemanticTrajectory> got, want;
      for (const std::vector<core::RawDetection>& batch : RandomBatches(rng)) {
        ASSERT_TRUE(builder.Ingest(batch, &got).ok());
        ASSERT_TRUE(oracle.Ingest(batch, &want).ok());
        ExpectSameTrajectories(got, want);
        ASSERT_EQ(StatsFields(builder.stats()), StatsFields(oracle.stats()));
        const IncrementalStats& stats = builder.stats();
        ASSERT_LE(stats.objects_swept, stats.records_in + stats.finalized);
      }
      ASSERT_TRUE(builder.Drain(&got).ok());
      ASSERT_TRUE(oracle.Drain(&want).ok());
      ExpectSameTrajectories(got, want);
      ASSERT_EQ(StatsFields(builder.stats()), StatsFields(oracle.stats()));
      late += builder.stats().late_dropped;
      retired += builder.stats().retired_objects;
      swept += builder.stats().objects_swept;
      graph_dropped += builder.stats().build.graph_inconsistent_dropped;
    }
  }
  // The streams reach the branches they exist for.
  EXPECT_GT(late, 0u);
  EXPECT_GT(retired, 0u);
  EXPECT_GT(swept, 0u);
  EXPECT_GT(graph_dropped, 0u);
}

}  // namespace
}  // namespace sitm::live
