#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/pipeline.h"

namespace sitm::core {
namespace {

RawDetection Det(int object, int cell, std::int64_t start, std::int64_t end) {
  return RawDetection(ObjectId(object), CellId(cell), Timestamp(start),
                      Timestamp(end));
}

TEST(BuilderTest, SingleCleanVisit) {
  TrajectoryBuilder builder;
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 20, 110, 300), Det(1, 30, 320, 400)});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  const SemanticTrajectory& t = result->front();
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.object(), ObjectId(1));
  EXPECT_EQ(t.trace().size(), 3u);
  EXPECT_EQ(builder.report().records_in, 3u);
  EXPECT_EQ(builder.report().trajectories_out, 1u);
}

TEST(BuilderTest, InputNeedNotBeSorted) {
  TrajectoryBuilder builder;
  const auto result = builder.Build(
      {Det(1, 30, 320, 400), Det(1, 10, 0, 100), Det(1, 20, 110, 300)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().at(0).cell, CellId(10));
  EXPECT_EQ(result->front().trace().at(2).cell, CellId(30));
}

TEST(BuilderTest, DropsZeroDurationDetections) {
  // §4.1: ~10% of detections have zero duration and are filtered as
  // errors.
  TrajectoryBuilder builder;
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 20, 150, 150), Det(1, 30, 200, 300)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().size(), 2u);
  EXPECT_EQ(builder.report().zero_duration_dropped, 1u);
}

TEST(BuilderTest, KeepsZeroDurationWhenDisabled) {
  BuilderOptions options;
  options.drop_zero_duration = false;
  TrajectoryBuilder builder(options);
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 20, 150, 150), Det(1, 30, 200, 300)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().size(), 3u);
  EXPECT_EQ(builder.report().zero_duration_dropped, 0u);
}

TEST(BuilderTest, ClipsSensorHandoverOverlap) {
  TrajectoryBuilder builder;
  // Second detection starts before the first ends (the paper's own
  // example trace shows such overlaps: 11:32:31 < 11:32:35).
  const auto result =
      builder.Build({Det(1, 10, 0, 100), Det(1, 20, 95, 200)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(builder.report().overlaps_clipped, 1u);
  EXPECT_EQ(result->front().trace().at(1).start(), Timestamp(101));
  EXPECT_TRUE(result->front().trace().Validate().ok());
}

TEST(BuilderTest, DropsContainedDetections) {
  TrajectoryBuilder builder;
  const auto result =
      builder.Build({Det(1, 10, 0, 300), Det(1, 20, 50, 100)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().size(), 1u);
  EXPECT_EQ(builder.report().contained_dropped, 1u);
}

TEST(BuilderTest, SplitsVisitsAtSessionGaps) {
  BuilderOptions options;
  options.session_gap = Duration::Hours(2);
  TrajectoryBuilder builder(options);
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 20, 200, 300),
       // 3 hours later: a second visit (a "returning" visitor).
       Det(1, 10, 11000, 11100), Det(1, 30, 11200, 11300)});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(result->at(0).trace().size(), 2u);
  EXPECT_EQ(result->at(1).trace().size(), 2u);
  // Sequential ids.
  EXPECT_EQ(result->at(0).id(), TrajectoryId(1));
  EXPECT_EQ(result->at(1).id(), TrajectoryId(2));
}

TEST(BuilderTest, MergesConsecutiveSameCellDetections) {
  TrajectoryBuilder builder;
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 10, 120, 200), Det(1, 20, 250, 400)});
  ASSERT_TRUE(result.ok());
  const Trace& trace = result->front().trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.at(0).start(), Timestamp(0));
  EXPECT_EQ(trace.at(0).end(), Timestamp(200));
  EXPECT_EQ(builder.report().merged_same_cell, 1u);
}

TEST(BuilderTest, SameCellBeyondMergeGapStaysSplit) {
  BuilderOptions options;
  options.same_cell_merge_gap = Duration::Seconds(10);
  TrajectoryBuilder builder(options);
  const auto result =
      builder.Build({Det(1, 10, 0, 100), Det(1, 10, 200, 300)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().size(), 2u);
}

TEST(BuilderTest, MultipleObjectsAreSeparated) {
  TrajectoryBuilder builder;
  const auto result = builder.Build(
      {Det(2, 10, 0, 100), Det(1, 10, 0, 100), Det(1, 20, 150, 200)});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(result->at(0).object(), ObjectId(1));
  EXPECT_EQ(result->at(1).object(), ObjectId(2));
  EXPECT_EQ(builder.report().objects_seen, 2u);
}

TEST(BuilderTest, InfersTransitionBoundaryFromGraph) {
  indoor::Nrg graph;
  for (int id : {10, 20}) {
    ASSERT_TRUE(graph
                    .AddCell(indoor::CellSpace(CellId(id), "c",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  ASSERT_TRUE(graph
                  .AddBoundary({BoundaryId(77), "door77",
                                indoor::BoundaryType::kDoor})
                  .ok());
  ASSERT_TRUE(graph
                  .AddSymmetricEdge(CellId(10), CellId(20),
                                    indoor::EdgeType::kAccessibility,
                                    BoundaryId(77))
                  .ok());
  BuilderOptions options;
  options.graph = &graph;
  TrajectoryBuilder builder(options);
  const auto result =
      builder.Build({Det(1, 10, 0, 100), Det(1, 20, 150, 200)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().at(1).transition, BoundaryId(77));
  EXPECT_FALSE(result->front().trace().at(0).transition.valid());
}

TEST(BuilderTest, AmbiguousTransitionStaysUnknown) {
  indoor::Nrg graph;
  for (int id : {10, 20}) {
    ASSERT_TRUE(graph
                    .AddCell(indoor::CellSpace(CellId(id), "c",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  for (int b : {1, 2}) {
    ASSERT_TRUE(graph
                    .AddBoundary({BoundaryId(b), "door",
                                  indoor::BoundaryType::kDoor})
                    .ok());
    ASSERT_TRUE(graph
                    .AddEdge(CellId(10), CellId(20),
                             indoor::EdgeType::kAccessibility, BoundaryId(b))
                    .ok());
  }
  BuilderOptions options;
  options.graph = &graph;
  TrajectoryBuilder builder(options);
  const auto result =
      builder.Build({Det(1, 10, 0, 100), Det(1, 20, 150, 200)});
  ASSERT_TRUE(result.ok());
  // Two doors between the cells: the transition cannot be pinned down.
  EXPECT_FALSE(result->front().trace().at(1).transition.valid());
}

TEST(BuilderTest, DropsGraphInconsistentTeleports) {
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
  // Cell 30 is disconnected: a detection there after cell 10 is a
  // localization glitch.
  BuilderOptions options;
  options.graph = &graph;
  options.drop_graph_inconsistent = true;
  TrajectoryBuilder builder(options);
  const auto result = builder.Build(
      {Det(1, 10, 0, 100), Det(1, 30, 150, 200), Det(1, 20, 250, 300)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().trace().size(), 2u);
  EXPECT_EQ(builder.report().graph_inconsistent_dropped, 1u);
}

TEST(BuilderTest, RejectsInvalidInputs) {
  TrajectoryBuilder builder;
  EXPECT_FALSE(
      builder.Build({RawDetection(ObjectId(), CellId(1), Timestamp(0),
                                  Timestamp(1))})
          .ok());
  BuilderOptions options;
  options.default_annotations = AnnotationSet{};
  TrajectoryBuilder bad_options(options);
  EXPECT_FALSE(bad_options.Build({Det(1, 10, 0, 100)}).ok());
}

TEST(BuilderTest, RejectsInvertedDetectionWhenZeroDurationIsKept) {
  // With zero-duration detections kept, nothing in cleaning drops one
  // that ends before it starts: it must be rejected, not assembled.
  const std::vector<RawDetection> detections = {Det(1, 10, 0, 100),
                                                Det(2, 20, 200, 150)};
  BuilderOptions options;
  options.drop_zero_duration = false;
  TrajectoryBuilder builder(options);
  EXPECT_EQ(builder.Build(detections).status().code(),
            StatusCode::kInvalidArgument);
  PipelineOptions pipeline_options;
  pipeline_options.builder = options;
  BatchPipeline pipeline(pipeline_options);
  EXPECT_EQ(pipeline.Run(detections).status().code(),
            StatusCode::kInvalidArgument);

  // By default it is a zero-duration detection: dropped and counted.
  TrajectoryBuilder dropping;
  const auto result = dropping.Build(detections);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(dropping.report().zero_duration_dropped, 1u);
}

TEST(BuilderTest, RejectsNegativeSessionGap) {
  BuilderOptions options;
  options.session_gap = Duration::Seconds(-1);
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  TrajectoryBuilder builder(options);
  EXPECT_EQ(builder.Build({Det(1, 10, 0, 100)}).status().code(),
            StatusCode::kInvalidArgument);
  options.session_gap = Duration::Seconds(0);
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BuilderTest, AllZeroDurationVisitorVanishes) {
  TrajectoryBuilder builder;
  const auto result = builder.Build({Det(1, 10, 5, 5)});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(builder.report().zero_duration_dropped, 1u);
}

TEST(BuilderTest, DefaultAnnotationsAppliedToEveryTrajectory) {
  BuilderOptions options;
  options.default_annotations =
      AnnotationSet{{AnnotationKind::kActivity, "museum visit"}};
  options.first_trajectory_id = TrajectoryId(100);
  TrajectoryBuilder builder(options);
  const auto result = builder.Build({Det(1, 10, 0, 100)});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->front().annotations().Contains(
      AnnotationKind::kActivity, "museum visit"));
  EXPECT_EQ(result->front().id(), TrajectoryId(100));
}

}  // namespace
}  // namespace sitm::core
