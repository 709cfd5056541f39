#include <gtest/gtest.h>

#include <cstdio>

#include "io/csv.h"

namespace sitm::io {
namespace {

TEST(CsvParseTest, SimpleTable) {
  const auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "6");
}

TEST(CsvParseTest, QuotedFieldsAndEscapes) {
  const auto table =
      ParseCsv("name,notes\n\"Salle, des Etats\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "Salle, des Etats");
  EXPECT_EQ(table->rows[0][1], "said \"hi\"");
}

TEST(CsvParseTest, QuotedNewlines) {
  const auto table = ParseCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "line1\nline2");
}

TEST(CsvParseTest, CrLfLineEndings) {
  const auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvParseTest, MissingTrailingNewline) {
  const auto table = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvParseTest, ArityMismatchIsCorruption) {
  EXPECT_EQ(ParseCsv("a,b\n1,2,3\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseCsv("a,b\n1\n").status().code(), StatusCode::kCorruption);
}

TEST(CsvParseTest, UnterminatedQuoteIsCorruption) {
  EXPECT_EQ(ParseCsv("a\n\"oops\n").status().code(),
            StatusCode::kCorruption);
}

// --- Regression pins for the io/ hardening pass: malformed input must
// parse or return Corruption, never silently reinterpret or drop rows.

TEST(CsvParseTest, InputEndingInsideQuotedFieldIsCorruption) {
  // EOF in the middle of a quoted field, with and without preceding
  // content, including right after an escaped quote.
  EXPECT_EQ(ParseCsv("a,b\n1,\"unclosed").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseCsv("\"").status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ParseCsv("a\n\"x\"\"").status().code(), StatusCode::kCorruption);
}

TEST(CsvParseTest, LoneQuoteInUnquotedFieldIsCorruption) {
  // A '"' that does not open the field is malformed; the old lenient
  // parser re-entered quoted mode mid-field and swallowed the rest of
  // the line (including the record separator).
  EXPECT_EQ(ParseCsv("a,b\n1,sa\"y\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseCsv("a\nx\"\n").status().code(), StatusCode::kCorruption);
  // Data after a closing quote is equally malformed.
  EXPECT_EQ(ParseCsv("a\n\"x\" y\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseCsv("a\n\"x\"\"y\"z\n").status().code(),
            StatusCode::kCorruption);
}

TEST(CsvParseTest, FinalRecordWithoutTrailingNewlineNeverDropsRows) {
  // Plain last field.
  const auto plain = ParseCsv("a,b\n1,2\n3,4");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->rows.size(), 2u);
  EXPECT_EQ(plain->rows[1], (std::vector<std::string>{"3", "4"}));
  // Quoted last field (incl. an escaped quote and an empty one).
  const auto quoted = ParseCsv("a,b\n1,\"x,y\"");
  ASSERT_TRUE(quoted.ok());
  ASSERT_EQ(quoted->rows.size(), 1u);
  EXPECT_EQ(quoted->rows[0][1], "x,y");
  const auto escaped = ParseCsv("a\n\"say \"\"hi\"\"\"");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped->rows[0][0], "say \"hi\"");
  const auto empty_quoted = ParseCsv("a,b\n1,\"\"");
  ASSERT_TRUE(empty_quoted.ok());
  EXPECT_EQ(empty_quoted->rows[0][1], "");
  // Trailing comma: the final empty field still counts.
  const auto trailing_comma = ParseCsv("a,b\n1,");
  ASSERT_TRUE(trailing_comma.ok());
  EXPECT_EQ(trailing_comma->rows[0],
            (std::vector<std::string>{"1", ""}));
  // Header-only input without a newline.
  const auto header_only = ParseCsv("a,b");
  ASSERT_TRUE(header_only.ok());
  EXPECT_EQ(header_only->header, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(header_only->rows.empty());
}

TEST(CsvParseTest, EmptyInput) {
  const auto table = ParseCsv("");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->header.empty());
  EXPECT_TRUE(table->rows.empty());
}

TEST(CsvWriteTest, RoundTrip) {
  CsvTable table;
  table.header = {"visitor", "zone", "note"};
  table.rows = {{"1", "60887", "has, comma"},
                {"2", "60890", "has \"quote\""}};
  const auto parsed = ParseCsv(WriteCsv(table));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvTableTest, ColumnIndex) {
  CsvTable table;
  table.header = {"a", "b"};
  EXPECT_EQ(table.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(table.ColumnIndex("z").ok());
}

TEST(CsvQuoteTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvQuote("plain"), "plain");
  EXPECT_EQ(CsvQuote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvQuote("two\nlines"), "\"two\nlines\"");
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sitm_io_test.csv";
  ASSERT_TRUE(WriteFile(path, "a,b\n1,2\n").ok());
  const auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadFile("/nonexistent/dir/file.csv").status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(WriteFile("/nonexistent/dir/file.csv", "x").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace sitm::io
