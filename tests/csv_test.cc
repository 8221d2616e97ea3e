#include "util/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#ifndef SQLOG_FUZZ_CORPUS_DIR
#error "SQLOG_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

namespace sqlog {
namespace {

TEST(CsvTest, PlainFieldsNeedNoQuoting) {
  EXPECT_EQ(Csv::EscapeField("hello"), "hello");
  EXPECT_EQ(Csv::EscapeField(""), "");
}

TEST(CsvTest, FieldsWithSeparatorAreQuoted) {
  EXPECT_EQ(Csv::EscapeField("a,b"), "\"a,b\"");
}

TEST(CsvTest, EmbeddedQuotesAreDoubled) {
  EXPECT_EQ(Csv::EscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, NewlinesForceQuoting) {
  EXPECT_EQ(Csv::EscapeField("a\nb"), "\"a\nb\"");
}

TEST(CsvTest, JoinLineEscapesEachField) {
  EXPECT_EQ(Csv::JoinLine({"a", "b,c", "d"}), "a,\"b,c\",d");
}

TEST(CsvTest, ParseSimpleLine) {
  auto fields = Csv::ParseLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFieldWithSeparator) {
  auto fields = Csv::ParseLine("a,\"b,c\",d");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(CsvTest, ParseDoubledQuote) {
  auto fields = Csv::ParseLine("\"say \"\"hi\"\"\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "say \"hi\"");
}

TEST(CsvTest, ParseEmptyFields) {
  auto fields = Csv::ParseLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto fields = Csv::ParseLine("\"oops");
  EXPECT_FALSE(fields.ok());
  EXPECT_EQ(fields.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RoundTripWithSqlStatement) {
  std::string sql = "SELECT a, b FROM t WHERE s = 'x,\"y\"'\nAND b > 1";
  std::string line = Csv::JoinLine({"1", sql, "end"});
  auto fields = Csv::ParseLine(line);
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[1], sql);
}

TEST(CsvTest, SplitLogicalLinesRespectsQuotedNewlines) {
  std::string content = "a,\"line1\nline2\",c\nd,e,f\n";
  auto lines = Csv::SplitLogicalLines(content);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a,\"line1\nline2\",c");
  EXPECT_EQ(lines[1], "d,e,f");
}

TEST(CsvTest, SplitLogicalLinesHandlesCrLf) {
  auto lines = Csv::SplitLogicalLines("a,b\r\nc,d\r\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a,b");
  EXPECT_EQ(lines[1], "c,d");
}

TEST(CsvTest, SplitLogicalLinesWithoutTrailingNewline) {
  auto lines = Csv::SplitLogicalLines("a,b");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "a,b");
}

// Feeds `content` to a LineSplitter split at `cut`, draining after each
// Feed like a streaming reader would, then Finish() for the tail.
std::vector<std::string> SplitAtBoundary(std::string_view content, size_t cut) {
  Csv::LineSplitter splitter;
  std::vector<std::string> lines;
  std::string line;
  splitter.Feed(content.substr(0, cut));
  while (splitter.Next(&line)) lines.push_back(line);
  splitter.Feed(content.substr(cut));
  while (splitter.Next(&line)) lines.push_back(line);
  splitter.Finish();
  while (splitter.Next(&line)) lines.push_back(line);
  return lines;
}

// Feeds `content` in `chunk`-byte pieces, draining after each Feed.
std::vector<std::string> SplitInChunks(std::string_view content, size_t chunk) {
  Csv::LineSplitter splitter;
  std::vector<std::string> lines;
  std::string line;
  for (size_t i = 0; i < content.size(); i += chunk) {
    splitter.Feed(content.substr(i, chunk));
    while (splitter.Next(&line)) lines.push_back(line);
  }
  splitter.Finish();
  while (splitter.Next(&line)) lines.push_back(line);
  return lines;
}

// A file exercising every stateful construct the splitter tracks:
// doubled quotes inside quoted fields, quoted separators and newlines,
// CRLF and lone-CR terminators, and an unterminated final line. Every
// split point must yield exactly the SplitLogicalLines result — the
// chunk boundary can land inside a `""` pair or between a CR and its
// LF, where a naive splitter would mis-toggle quote state or emit a
// phantom empty line.
constexpr std::string_view kBoundaryFile =
    "a,\"x\"\"y\",b\n"
    "\"line\nbreak\",2\r\n"
    "\"\"\"lead\",3\r"
    "plain,4\r\n"
    "\"trail\"\"\",5\n"
    "last,6";

TEST(CsvTest, LineSplitterMatchesSplitLogicalLinesAtEverySplitPoint) {
  const auto expected = Csv::SplitLogicalLines(kBoundaryFile);
  ASSERT_EQ(expected.size(), 6u);
  for (size_t cut = 0; cut <= kBoundaryFile.size(); ++cut) {
    EXPECT_EQ(expected, SplitAtBoundary(kBoundaryFile, cut)) << "split at " << cut;
  }
}

TEST(CsvTest, LineSplitterHandlesOneByteChunks) {
  EXPECT_EQ(Csv::SplitLogicalLines(kBoundaryFile), SplitInChunks(kBoundaryFile, 1));
}

// Every fuzz corpus entry (SQL, binary logs, solver inputs: quotes, CRs
// and high bytes in arbitrary places) must split the same streamed at
// any chunk size as in one buffer.
TEST(CsvTest, LineSplitterMatchesSplitLogicalLinesOnFuzzCorpus) {
  namespace fs = std::filesystem;
  const fs::path root(SQLOG_FUZZ_CORPUS_DIR);
  size_t entries = 0;
  for (const auto& file : fs::recursive_directory_iterator(root)) {
    if (!file.is_regular_file()) continue;
    std::ifstream in(file.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const auto expected = Csv::SplitLogicalLines(bytes);
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
      EXPECT_EQ(expected, SplitInChunks(bytes, chunk))
          << file.path().lexically_relative(root).string() << " chunk " << chunk;
    }
    ++entries;
  }
  EXPECT_GT(entries, 0u);
}

TEST(CsvTest, LineSplitterDefersLoneCrAtChunkEnd) {
  // A chunk ending in an unquoted CR must not emit until the next chunk
  // reveals whether an LF follows (CRLF is one terminator, not two).
  Csv::LineSplitter splitter;
  std::string line;
  splitter.Feed("a\r");
  EXPECT_FALSE(splitter.Next(&line));
  splitter.Feed("\nb\n");
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(splitter.Next(&line));
}

TEST(CsvTest, LineSplitterLoneCrBeforeNonLfTerminatesLine) {
  Csv::LineSplitter splitter;
  std::string line;
  splitter.Feed("a\r");
  splitter.Feed("b\n");
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "b");
}

TEST(CsvTest, LineSplitterTrailingCrAtFinishEmitsLine) {
  Csv::LineSplitter splitter;
  std::string line;
  splitter.Feed("a\r");
  splitter.Finish();
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "a");
  EXPECT_FALSE(splitter.Next(&line));
  EXPECT_FALSE(splitter.truncated_in_quotes());
}

TEST(CsvTest, LineSplitterQuoteStateSurvivesSplitInsideDoubledQuotes) {
  // Boundary exactly between the two quotes of a `""` escape: the field
  // stays open, the line must not end at the quoted newline.
  Csv::LineSplitter splitter;
  std::string line;
  splitter.Feed("\"ab\"");
  EXPECT_FALSE(splitter.Next(&line));
  splitter.Feed("\"cd\nef\",x\n");
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_EQ(line, "\"ab\"\"cd\nef\",x");
  EXPECT_FALSE(splitter.Next(&line));
}

TEST(CsvTest, LineSplitterReportsTruncationInsideQuotes) {
  Csv::LineSplitter splitter;
  std::string line;
  splitter.Feed("\"open,field\n");
  EXPECT_FALSE(splitter.Next(&line));
  splitter.Finish();
  EXPECT_TRUE(splitter.truncated_in_quotes());
  ASSERT_TRUE(splitter.Next(&line));
  // The newline is quoted-field content, not a terminator, so the
  // truncated tail keeps it — same as SplitLogicalLines.
  EXPECT_EQ(line, "\"open,field\n");
}

}  // namespace
}  // namespace sqlog
