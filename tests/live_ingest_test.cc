// Ingest-boundary hardening: ParseDetectionBatch faces raw network
// bodies, so every malformed, truncated, or type-confused input must
// come back as Status::InvalidArgument — never UB, never a throw, never
// a partial batch — and the happy paths must decode exactly.
#include "live/ingest.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "live/incremental_builder.h"
#include "live/segment_store.h"

namespace sitm::live {
namespace {

void ExpectRejected(const std::string& body, const char* why) {
  const auto result = ParseDetectionBatch(body);
  ASSERT_FALSE(result.ok()) << why << ": " << body;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << why << ": " << result.status();
}

TEST(ParseDetectionBatchTest, MalformedBodiesAreInvalidArgument) {
  // A fuzz-derived corpus: every entry once produced (or plausibly
  // could produce) something other than a clean InvalidArgument.
  const struct {
    const char* body;
    const char* why;
  } corpus[] = {
      {"", "empty body"},
      {"   \n\t ", "whitespace only"},
      {"not json at all", "non-JSON"},
      {"\xff\xfe\x00garbage", "binary garbage"},
      {"[", "truncated array"},
      {"[{\"object\":1,", "truncated mid-object"},
      {"[{\"object\":1}]trailing", "trailing garbage"},
      {"null", "top-level null"},
      {"42", "top-level number"},
      {"\"detections\"", "top-level string"},
      {"true", "top-level bool"},
      {"{}", "object without detections member"},
      {"{\"detections\": 7}", "detections member not an array"},
      {"{\"detections\": {\"object\": 1}}", "detections member an object"},
      {"[1, 2, 3]", "elements not objects"},
      {"[null]", "null element"},
      {"[[]]", "array element"},
      {"[{}]", "element missing every field"},
      {"[{\"object\":1,\"cell\":2,\"start\":0}]", "missing end"},
      {"[{\"cell\":2,\"start\":0,\"end\":1}]", "missing object"},
      {"[{\"object\":\"v1\",\"cell\":2,\"start\":0,\"end\":1}]",
       "object id as string"},
      {"[{\"object\":1.5,\"cell\":2,\"start\":0,\"end\":1}]",
       "object id as float"},
      {"[{\"object\":-1,\"cell\":2,\"start\":0,\"end\":1}]",
       "negative object id"},
      {"[{\"object\":1,\"cell\":-2,\"start\":0,\"end\":1}]",
       "negative cell id"},
      {"[{\"object\":1,\"cell\":null,\"start\":0,\"end\":1}]",
       "null cell"},
      {"[{\"object\":1,\"cell\":2,\"start\":true,\"end\":1}]",
       "bool timestamp"},
      {"[{\"object\":1,\"cell\":2,\"start\":[0],\"end\":1}]",
       "array timestamp"},
      {"[{\"object\":1,\"cell\":2,\"start\":\"yesterday\",\"end\":1}]",
       "unparseable timestamp string"},
      {"[{\"object\":1,\"cell\":2,\"start\":\"2017-02-30 12:00:00\","
       "\"end\":1}]",
       "impossible civil date"},
  };
  for (const auto& sample : corpus) {
    ExpectRejected(sample.body, sample.why);
  }
}

TEST(ParseDetectionBatchTest, DeepNestingIsRejectedNotFatal) {
  // Stack-smash probes: pathological nesting must die in the JSON
  // parser's depth cap and surface as InvalidArgument.
  ExpectRejected(std::string(10000, '['), "10k open brackets");
  std::string deep(5000, '[');
  deep += "{\"object\":1}";
  deep.append(5000, ']');
  ExpectRejected(deep, "detection buried 5k levels down");
}

TEST(ParseDetectionBatchTest, OneBadElementRejectsTheWholeBatch) {
  // No partial ingestion: a batch is all-or-nothing so a retry after a
  // 400 can resend the same body without duplicating the good prefix.
  const std::string body =
      "[{\"object\":1,\"cell\":2,\"start\":100,\"end\":200},"
      " {\"object\":1,\"cell\":\"oops\",\"start\":300,\"end\":400}]";
  ExpectRejected(body, "bad second element");
}

TEST(ParseDetectionBatchTest, AcceptsArrayAndWrappedForms) {
  const char* bodies[] = {
      "[{\"object\":7,\"cell\":3,\"start\":100,\"end\":250}]",
      "{\"detections\":[{\"object\":7,\"cell\":3,\"start\":100,"
      "\"end\":250}]}",
  };
  for (const char* body : bodies) {
    const auto result = ParseDetectionBatch(body);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0].object, ObjectId(7));
    EXPECT_EQ((*result)[0].cell, CellId(3));
    EXPECT_EQ((*result)[0].start, Timestamp(100));
    EXPECT_EQ((*result)[0].end, Timestamp(250));
  }
}

TEST(ParseDetectionBatchTest, AcceptsCivilTimestampStrings) {
  const auto result = ParseDetectionBatch(
      "[{\"object\":1,\"cell\":2,\"start\":\"2017-02-01 17:30:21\","
      "\"end\":\"2017-02-01 17:45:00\"}]");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].start,
            Timestamp::Parse("2017-02-01 17:30:21").value());
  EXPECT_EQ((*result)[0].end,
            Timestamp::Parse("2017-02-01 17:45:00").value());
}

TEST(ParseDetectionBatchTest, UnknownKeysAreIgnored) {
  const auto result = ParseDetectionBatch(
      "[{\"object\":1,\"cell\":2,\"start\":5,\"end\":9,"
      "\"sensor\":\"gate-4\",\"rssi\":-61}]");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
}

TEST(ParseDetectionBatchTest, EmptyBatchIsValid) {
  EXPECT_EQ(ParseDetectionBatch("[]").value().size(), 0u);
  EXPECT_EQ(ParseDetectionBatch("{\"detections\": []}").value().size(), 0u);
}

TEST(RenderStatsTest, EmitsEveryCounterAsValidJson) {
  IncrementalStats builder;
  builder.has_watermark = true;
  builder.watermark = Timestamp(1234);
  builder.records_in = 10;
  builder.late_dropped = 2;
  builder.retired_objects = 13;
  builder.finalized = 3;
  builder.objects_swept = 12;
  builder.peak_open_objects = 4;
  builder.build.zero_duration_dropped = 6;
  builder.build.contained_dropped = 7;
  builder.build.overlaps_clipped = 8;
  builder.build.graph_inconsistent_dropped = 9;
  builder.build.merged_same_cell = 11;
  SegmentStoreStats store;
  store.segments = 5;
  store.compactions = 1;
  store.segments_per_level = {3, 2};

  const io::JsonValue doc = RenderStats(builder, store);
  // Dump -> Parse round trip proves the document is well-formed.
  const auto parsed = io::JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const io::JsonValue* b = parsed->Get("builder").value();
  EXPECT_EQ(b->Get("watermark").value()->AsInt().value(), 1234);
  EXPECT_EQ(b->Get("records_in").value()->AsInt().value(), 10);
  EXPECT_EQ(b->Get("late_dropped").value()->AsInt().value(), 2);
  EXPECT_EQ(b->Get("retired_objects").value()->AsInt().value(), 13);
  EXPECT_EQ(b->Get("objects_swept").value()->AsInt().value(), 12);
  EXPECT_EQ(b->Get("peak_open_objects").value()->AsInt().value(), 4);
  const io::JsonValue* cleaning = b->Get("cleaning").value();
  EXPECT_EQ(cleaning->Get("zero_duration_dropped").value()->AsInt().value(),
            6);
  EXPECT_EQ(cleaning->Get("contained_dropped").value()->AsInt().value(), 7);
  EXPECT_EQ(cleaning->Get("overlaps_clipped").value()->AsInt().value(), 8);
  EXPECT_EQ(
      cleaning->Get("graph_inconsistent_dropped").value()->AsInt().value(), 9);
  EXPECT_EQ(cleaning->Get("merged_same_cell").value()->AsInt().value(), 11);
  const io::JsonValue* s = parsed->Get("store").value();
  EXPECT_EQ(s->Get("segments").value()->AsInt().value(), 5);
  EXPECT_EQ(s->Get("compactions").value()->AsInt().value(), 1);
  EXPECT_EQ(s->Get("segments_per_level").value()->AsArray().value()->size(),
            2u);
}

TEST(RenderStatsTest, NoWatermarkRendersNull) {
  const io::JsonValue doc = RenderStats(IncrementalStats{},
                                        SegmentStoreStats{});
  const auto parsed = io::JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->Get("builder").value()->Get("watermark").value()
                  ->is_null());
}

}  // namespace
}  // namespace sitm::live
