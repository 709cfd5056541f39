#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "io/json.h"

namespace sitm::io {
namespace {

TEST(JsonValueTest, KindPredicates) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(42).is_int());
  EXPECT_TRUE(JsonValue(4.5).is_double());
  EXPECT_TRUE(JsonValue(42).is_number());
  EXPECT_TRUE(JsonValue("x").is_string());
  EXPECT_TRUE(JsonValue(JsonValue::Array{}).is_array());
  EXPECT_TRUE(JsonValue(JsonValue::Object{}).is_object());
}

TEST(JsonValueTest, CheckedAccessors) {
  EXPECT_EQ(JsonValue(true).AsBool().value(), true);
  EXPECT_EQ(JsonValue(42).AsInt().value(), 42);
  EXPECT_DOUBLE_EQ(JsonValue(42).AsDouble().value(), 42.0);  // int widens
  EXPECT_DOUBLE_EQ(JsonValue(2.5).AsDouble().value(), 2.5);
  EXPECT_EQ(JsonValue("hi").AsString().value(), "hi");
  EXPECT_FALSE(JsonValue(42).AsBool().ok());
  EXPECT_FALSE(JsonValue(2.5).AsInt().ok());
  EXPECT_FALSE(JsonValue("x").AsArray().ok());
  EXPECT_FALSE(JsonValue(1).AsObject().ok());
}

TEST(JsonValueTest, ObjectGetSet) {
  const JsonValue obj{JsonValue::Object{{"a", 1}, {"b", "two"}}};
  EXPECT_EQ(obj.Get("a").value()->AsInt().value(), 1);
  EXPECT_FALSE(obj.Get("zzz").ok());
  EXPECT_FALSE(JsonValue(1).Get("a").ok());
}

TEST(JsonValueTest, ArrayAppend) {
  const JsonValue arr{JsonValue::Array{1, "x"}};
  EXPECT_EQ(arr.AsArray().value()->size(), 2u);
}

TEST(JsonDumpTest, CompactFormat) {
  const JsonValue obj{JsonValue::Object{{"n", nullptr},
                                        {"b", false},
                                        {"i", 42},
                                        {"s", "hi"},
                                        {"a", JsonValue::Array{1, 2}}}};
  EXPECT_EQ(obj.Dump(),
            R"({"n":null,"b":false,"i":42,"s":"hi","a":[1,2]})");
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd\te").Dump(),
            R"("a\"b\\c\nd\te")");
  EXPECT_EQ(JsonValue(std::string("ctl\x01")).Dump(), "\"ctl\\u0001\"");
}

TEST(JsonDumpTest, EmptyContainers) {
  EXPECT_EQ(JsonValue(JsonValue::Array{}).Dump(), "[]");
  EXPECT_EQ(JsonValue(JsonValue::Object{}).Dump(), "{}");
  EXPECT_EQ(JsonValue(JsonValue::Array{}).Pretty(), "[]");
}

TEST(JsonDumpTest, PrettyIndents) {
  const JsonValue obj{JsonValue::Object{{"a", 1}}};
  EXPECT_EQ(obj.Pretty(), "{\n  \"a\": 1\n}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null").value().is_null());
  EXPECT_EQ(JsonValue::Parse("true").value().AsBool().value(), true);
  EXPECT_EQ(JsonValue::Parse("false").value().AsBool().value(), false);
  EXPECT_EQ(JsonValue::Parse("-17").value().AsInt().value(), -17);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5e2").value().AsDouble().value(),
                   250.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").value().AsString().value(), "hi");
}

TEST(JsonParseTest, NestedStructures) {
  const auto v = JsonValue::Parse(
      R"({"layers":[{"id":3,"cells":[1,2]},{"id":4,"cells":[]}],"ok":true})");
  ASSERT_TRUE(v.ok()) << v.status();
  const auto layers = v->Get("layers");
  ASSERT_TRUE(layers.ok());
  const auto arr = (*layers)->AsArray();
  ASSERT_TRUE(arr.ok());
  ASSERT_EQ((*arr)->size(), 2u);
  EXPECT_EQ((*arr)->at(0).Get("id").value()->AsInt().value(), 3);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b\\c\ndA")").value()
                .AsString()
                .value(),
            "a\"b\\c\ndA");
  EXPECT_EQ(JsonValue::Parse(R"("café")").value().AsString().value(),
            "caf\xc3\xa9");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  EXPECT_TRUE(JsonValue::Parse(" {\n \"a\" :\t[ 1 , 2 ] } ").ok());
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());  // trailing garbage
  EXPECT_FALSE(JsonValue::Parse("-").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\q\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\u00g1\"").ok());
}

TEST(JsonParseTest, NestingDepthLimit) {
  // The parser caps nesting at 96 levels so adversarial bodies (the
  // live ingest endpoint feeds network input here) cannot blow the
  // stack: the boundary parses, one past it is a clean error.
  const auto nested = [](std::size_t depth) {
    std::string text(depth, '[');
    text.append(depth, ']');
    return text;
  };
  EXPECT_TRUE(JsonValue::Parse(nested(96)).ok());
  const auto too_deep = JsonValue::Parse(nested(97));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.status().message().find("nesting"), std::string::npos);
  // Unclosed deep nesting must also come back as a Status — never a
  // crash — even at pathological depth.
  EXPECT_FALSE(JsonValue::Parse(std::string(10000, '[')).ok());
  EXPECT_FALSE(JsonValue::Parse(
                   "{\"a\":" + std::string(10000, '[') + "1").ok());
}

class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsStable) {
  const auto first = JsonValue::Parse(GetParam());
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string dumped = first->Dump();
  const auto second = JsonValue::Parse(dumped);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->Dump(), dumped);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values(
        "null", "true", "42", "-3.75", "\"text\"", "[]", "{}",
        "[1,[2,[3,[4]]]]",
        R"({"trace":[{"cell":60887,"start":"2017-02-01 17:30:21"}]})",
        R"({"a":null,"b":[true,false],"c":{"d":"e"},"f":1e-3})",
        R"(["mixed",1,2.5,null,{"k":[]}])"));

}  // namespace
}  // namespace sitm::io
