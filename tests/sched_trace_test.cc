// TraceSink: span recording, name truncation, ring overflow
// accounting, JSON serialization (including escaping), file dump, and
// Clear.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/trace.h"

namespace sitm::sched {
namespace {

TEST(TraceSinkTest, RecordsSpansSortedByBeginTime) {
  TraceSink sink(/*lanes=*/2);
  sink.RecordTask(1, "late", 300, 400);
  sink.RecordTask(0, "early", 100, 200);
  sink.RecordTask(0, "middle", 250, 260);
  const std::vector<TraceSpan> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "early");
  EXPECT_STREQ(spans[1].name, "middle");
  EXPECT_STREQ(spans[2].name, "late");
  EXPECT_EQ(spans[0].lane, 0u);
  EXPECT_EQ(spans[2].lane, 1u);
}

TEST(TraceSinkTest, NamesTruncateAtTheFixedWidth) {
  TraceSink sink(/*lanes=*/1);
  const std::string long_name(64, 'x');
  sink.RecordTask(0, long_name, 0, 1);
  const std::vector<TraceSpan> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name),
            std::string(TraceSpan::kNameWidth - 1, 'x'));
}

TEST(TraceSinkTest, RingOverflowKeepsNewestAndCountsDropped) {
  TraceSink sink(/*lanes=*/1, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    sink.RecordTask(0, "span-" + std::to_string(i), i, i + 1);
  }
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<TraceSpan> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // The four newest survive, still sorted by begin.
  EXPECT_STREQ(spans[0].name, "span-6");
  EXPECT_STREQ(spans[3].name, "span-9");
}

TEST(TraceSinkTest, OutOfRangeLanesAreIgnored) {
  TraceSink sink(/*lanes=*/1);
  sink.RecordTask(5, "nowhere", 0, 1);
  EXPECT_TRUE(sink.Spans().empty());
}

TEST(TraceSinkTest, ToJsonIsSelfDescribing) {
  TraceSink sink(/*lanes=*/2, /*capacity=*/8);
  sink.RecordTask(0, "build", 10, 20);
  sink.RecordTask(1, "enrich", 15, 30);
  const std::string json = sink.ToJson();
  EXPECT_NE(json.find("\"lanes\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"capacity\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"task\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"lane\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"enrich\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"begin_ns\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"end_ns\": 20"), std::string::npos) << json;
}

TEST(TraceSinkTest, ToJsonEscapesNames) {
  TraceSink sink(/*lanes=*/1);
  sink.RecordTask(0, "q\"b\\s", 0, 1);
  const std::string json = sink.ToJson();
  EXPECT_NE(json.find("\"q\\\"b\\\\s\""), std::string::npos) << json;
}

TEST(TraceSinkTest, WriteJsonRoundTripsThroughAFile) {
  TraceSink sink(/*lanes=*/1);
  sink.RecordTask(0, "persisted", 1, 2);
  const std::string path =
      ::testing::TempDir() + "/sched_trace_test_dump.json";
  ASSERT_TRUE(sink.WriteJson(path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), sink.ToJson());
  std::remove(path.c_str());
}

TEST(TraceSinkTest, WriteJsonReportsUnwritablePaths) {
  TraceSink sink(/*lanes=*/1);
  EXPECT_FALSE(sink.WriteJson("/nonexistent-dir/trace.json").ok());
}

TEST(TraceSinkTest, ClearDiscardsSpansAndDropCounts) {
  TraceSink sink(/*lanes=*/1, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) sink.RecordTask(0, "s", i, i + 1);
  EXPECT_GT(sink.dropped(), 0u);
  sink.Clear();
  EXPECT_TRUE(sink.Spans().empty());
  EXPECT_EQ(sink.dropped(), 0u);
  sink.RecordTask(0, "fresh", 0, 1);
  EXPECT_EQ(sink.Spans().size(), 1u);
}

}  // namespace
}  // namespace sitm::sched
