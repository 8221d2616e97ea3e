#include "log/log_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "log/arena.h"
#include "log/log_io.h"
#include "log/record.h"
#include "util/csv.h"

namespace sqlog::log {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

LogRecord Make(uint64_t seq, int64_t t, const char* user, const char* sql) {
  LogRecord record;
  record.seq = seq;
  record.timestamp_ms = t;
  record.user = user;
  record.session = std::string(user) + "#1";
  record.statement = sql;
  record.row_count = static_cast<int64_t>(seq) * 3 - 1;
  record.truth = seq % 2 == 0 ? TruthLabel::kOrganic : TruthLabel::kDwStifle;
  return record;
}

/// Statements that exercise every CSV escape path: embedded newlines,
/// quotes, commas, CRLF, leading/trailing spaces, and empty-ish fields.
QueryLog AwkwardLog() {
  QueryLog log;
  log.Append(Make(0, 1000, "alice", "SELECT a, b FROM t WHERE s = 'x,\"y\"'"));
  log.Append(Make(1, 2000, "bob", "SELECT *\nFROM multi\nWHERE line = 1"));
  log.Append(Make(2, 3000, "", "SELECT '\"' FROM quotes"));
  log.Append(Make(3, 4000, "eve,comma", "SELECT 1\r\nFROM crlf"));
  log.Append(Make(4, 5000, "d\"q", " SELECT padded FROM spaces "));
  log.Append(Make(5, 6000, "frank", "SELECT ',' FROM t WHERE a = 'it''s'"));
  return log;
}

void ExpectSameRecords(const QueryLog& want, const std::vector<LogRecord>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const LogRecord& a = want.records()[i];
    const LogRecord& b = got[i];
    EXPECT_EQ(b.seq, a.seq) << "record " << i;
    EXPECT_EQ(b.timestamp_ms, a.timestamp_ms) << "record " << i;
    EXPECT_EQ(b.user, a.user) << "record " << i;
    EXPECT_EQ(b.session, a.session) << "record " << i;
    EXPECT_EQ(b.row_count, a.row_count) << "record " << i;
    EXPECT_EQ(b.truth, a.truth) << "record " << i;
    EXPECT_EQ(b.statement, a.statement) << "record " << i;
  }
}

TEST(LogStreamTest, WriterReaderRoundTripAcrossChunkBoundaries) {
  const QueryLog original = AwkwardLog();
  std::string path = TempPath("log_stream_roundtrip.csv");
  LogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const auto& record : original.records()) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  LogReaderOptions options;
  // Tiny chunks force quoted fields to straddle read boundaries.
  options.chunk_bytes = 16;
  LogReader reader(options);
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<LogRecord> all;
  LogRecord record;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.ReadRecord(&record, &eof).ok());
    if (eof) break;
    all.push_back(std::move(record));
  }
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(reader.records_read(), original.size());
  ExpectSameRecords(original, all);
  std::remove(path.c_str());
}

TEST(LogStreamTest, WriterBytesMatchLogIoToCsv) {
  const QueryLog original = AwkwardLog();
  std::string path = TempPath("log_stream_bytes.csv");
  LogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const auto& record : original.records()) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  std::ifstream in(path, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, LogIo::ToCsv(original));
  std::remove(path.c_str());
}

TEST(LogStreamTest, RenumberingWriterIgnoresRecordSeq) {
  std::string path = TempPath("log_stream_renumber.csv");
  LogWriterOptions options;
  options.renumber = true;
  LogWriter writer(options);
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(Make(900, 1000, "u", "SELECT 1")).ok());
  ASSERT_TRUE(writer.Append(Make(17, 2000, "u", "SELECT 2")).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LogIo::ReadFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->records()[0].seq, 0u);
  EXPECT_EQ(loaded->records()[1].seq, 1u);
  std::remove(path.c_str());
}

TEST(LogStreamTest, MalformedNumericFieldsAreParseErrors) {
  struct Case {
    const char* row;
    const char* field;
  };
  const Case cases[] = {
      {"x,100,u,s,1,organic,SELECT 1", "seq"},
      {"0,10a0,u,s,1,organic,SELECT 1", "timestamp_ms"},
      {"0,100,u,s,1.5,organic,SELECT 1", "row_count"},
      {"0, 100,u,s,1,organic,SELECT 1", "timestamp_ms"},
      {"99999999999999999999999,100,u,s,1,organic,SELECT 1", "seq"},
      {"0,100,u,s,99999999999999999999999,organic,SELECT 1", "row_count"},
  };
  for (const Case& c : cases) {
    std::string path = TempPath("log_stream_badnum.csv");
    WriteText(path, std::string(c.row) + "\n");
    LogReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    LogRecord record;
    bool eof = false;
    Status status = reader.ReadRecord(&record, &eof);
    EXPECT_FALSE(status.ok()) << c.row;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << c.row;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << "'" << status.message() << "' should name " << c.field;
    EXPECT_NE(status.message().find("line 1"), std::string::npos) << status.message();
    std::remove(path.c_str());
  }
}

TEST(LogStreamTest, NegativeTimestampAndRowCountParse) {
  std::string path = TempPath("log_stream_negative.csv");
  WriteText(path, "0,-5,u,s,-1,organic,SELECT 1\n");
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  LogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&record, &eof).ok());
  EXPECT_EQ(record.timestamp_ms, -5);
  EXPECT_EQ(record.row_count, -1);
  std::remove(path.c_str());
}

TEST(LogStreamTest, TruncatedFinalQuotedFieldIsParseError) {
  std::string path = TempPath("log_stream_truncated.csv");
  WriteText(path, "0,100,u,s,1,organic,\"SELECT 1\nFROM never_closed");
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  LogRecord record;
  bool eof = false;
  Status status = reader.ReadRecord(&record, &eof);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("truncated"), std::string::npos) << status.message();
  std::remove(path.c_str());
}

TEST(LogStreamTest, StrayHeaderMidFileIsParseError) {
  std::string path = TempPath("log_stream_strayheader.csv");
  WriteText(path,
            "seq,timestamp_ms,user,session,row_count,truth,statement\n"
            "0,100,u,s,1,organic,SELECT 1\n"
            "seq,timestamp_ms,user,session,row_count,truth,statement\n"
            "1,200,u,s,1,organic,SELECT 2\n");
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  LogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&record, &eof).ok());
  EXPECT_FALSE(eof);
  Status status = reader.ReadRecord(&record, &eof);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("stray header"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(LogStreamTest, HeaderInsideQuotedStatementIsData) {
  // A statement whose quoted text *contains* the header line must not
  // trip the stray-header check — only logical lines count.
  QueryLog log;
  log.Append(Make(0, 100, "u",
                  "SELECT 1\nseq,timestamp_ms,user,session,row_count,truth,statement"));
  std::string path = TempPath("log_stream_quotedheader.csv");
  ASSERT_TRUE(LogIo::WriteFile(log, path).ok());
  auto loaded = LogIo::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records()[0].statement, log.records()[0].statement);
  std::remove(path.c_str());
}

TEST(LogStreamTest, WriteFailureNamesTheFile) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "/dev/full is not available";
  const QueryLog log = AwkwardLog();
  LogWriter writer;
  Status status = writer.Open("/dev/full");
  for (const LogRecord& record : log.records()) {
    if (!status.ok()) break;
    status = writer.Append(record);
  }
  if (status.ok()) status = writer.Close();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("/dev/full"), std::string::npos) << status.ToString();
}

TEST(LogStreamTest, ReadFailureNamesTheFile) {
  // A directory opens like a file but fails at the first read.
  const std::string dir = TempPath("log_stream_read_dir");
  std::filesystem::create_directories(dir);
  LogReader reader;
  Status status = reader.Open(dir);
  LogRecord record;
  bool eof = false;
  if (status.ok()) status = reader.ReadRecord(&record, &eof);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(dir), std::string::npos) << status.ToString();
}

TEST(LineSplitterTest, AnyChunkingMatchesWholeInput) {
  const std::string text =
      "plain line\n"
      "\"quoted\nwith newline\",and more\r\n"
      "crlf line\r\n"
      "\"doubled \"\" quote, and comma\"\n"
      "tail without newline";
  // Reference: feed the whole text at once.
  std::vector<std::string> want;
  {
    Csv::LineSplitter splitter;
    splitter.Feed(text);
    splitter.Finish();
    std::string line;
    while (splitter.Next(&line)) want.push_back(line);
  }
  ASSERT_EQ(want.size(), 5u);
  // Every chunk size — including 1 byte, which splits the CRLF pair and
  // the doubled quotes across feeds — must yield the same lines.
  for (size_t chunk = 1; chunk <= text.size(); ++chunk) {
    Csv::LineSplitter splitter;
    std::vector<std::string> got;
    std::string line;
    for (size_t pos = 0; pos < text.size(); pos += chunk) {
      splitter.Feed(std::string_view(text).substr(pos, chunk));
      while (splitter.Next(&line)) got.push_back(line);
    }
    splitter.Finish();
    while (splitter.Next(&line)) got.push_back(line);
    EXPECT_EQ(got, want) << "chunk size " << chunk;
    EXPECT_FALSE(splitter.truncated_in_quotes());
  }
}

TEST(LineSplitterTest, FlagsUnterminatedQuote) {
  Csv::LineSplitter splitter;
  splitter.Feed("a,\"open quote\nnever closed");
  splitter.Finish();
  std::string line;
  ASSERT_TRUE(splitter.Next(&line));
  EXPECT_TRUE(splitter.truncated_in_quotes());
}

// Regression: a final unterminated record whose last byte lands exactly
// on a Feed() chunk boundary used to be dropped — Finish() only flushed
// bytes it considered "pending", and the chunk-edge state confused that
// test. The unified Finish() emits it regardless of where chunks fell.
TEST(LineSplitterTest, FinalLineAtExactChunkBoundaryIsEmitted) {
  const std::string text = "first\nfinal";  // no trailing newline
  for (size_t chunk : {size_t{1}, size_t{5}, size_t{6}, text.size()}) {
    Csv::LineSplitter splitter;
    std::vector<std::string> got;
    std::string line;
    for (size_t pos = 0; pos < text.size(); pos += chunk) {
      splitter.Feed(std::string_view(text).substr(pos, chunk));
      while (splitter.Next(&line)) got.push_back(line);
    }
    splitter.Finish();
    while (splitter.Next(&line)) got.push_back(line);
    ASSERT_EQ(got.size(), 2u) << "chunk size " << chunk;
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "final");
  }
}

// Regression companion: an input ending in a bare CR defers the line
// break (an LF might follow in the next chunk) — at Finish() that CR is
// a real terminator, even for an empty final line.
TEST(LineSplitterTest, TrailingCrTerminatesTheFinalLine) {
  {
    Csv::LineSplitter splitter;
    splitter.Feed("abc\r");
    splitter.Finish();
    std::string line;
    ASSERT_TRUE(splitter.Next(&line));
    EXPECT_EQ(line, "abc");
    EXPECT_FALSE(splitter.Next(&line));
  }
  {
    Csv::LineSplitter splitter;
    splitter.Feed("x\n\r");  // "x", then an empty CR-terminated line
    splitter.Finish();
    std::vector<std::string> got;
    std::string line;
    while (splitter.Next(&line)) got.push_back(line);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "x");
    EXPECT_EQ(got[1], "");
  }
}

// Reader-level regression: a file whose final record has no trailing
// newline must parse at every chunk size — including the chunk sizes
// that put the record's last byte exactly at a read boundary.
TEST(LogStreamTest, FinalRecordWithoutTrailingNewlineAtEveryChunkSize) {
  QueryLog original;
  original.Append(Make(0, 1000, "alice", "SELECT a FROM t"));
  original.Append(Make(1, 2000, "bob", "SELECT b,\n\"c\" FROM u"));
  std::string csv = LogIo::ToCsv(original);
  while (!csv.empty() && csv.back() == '\n') csv.pop_back();
  const std::string path = TempPath("log_stream_no_final_newline.csv");
  WriteText(path, csv);
  for (size_t chunk = 1; chunk <= csv.size(); ++chunk) {
    LogReaderOptions options;
    options.chunk_bytes = chunk;
    LogReader reader(options);
    ASSERT_TRUE(reader.Open(path).ok()) << "chunk " << chunk;
    std::vector<LogRecord> all;
    LogRecord record;
    bool eof = false;
    while (true) {
      ASSERT_TRUE(reader.ReadRecord(&record, &eof).ok()) << "chunk " << chunk;
      if (eof) break;
      all.push_back(std::move(record));
    }
    ExpectSameRecords(original, all);
  }
  std::remove(path.c_str());
}

TEST(StringArenaTest, StoreReturnsStableIndependentViews) {
  StringArena arena;
  std::string a = "hello";
  std::string_view va = arena.Store(a);
  a = "clobbered";  // the arena copy must be independent
  EXPECT_EQ(va, "hello");
  EXPECT_EQ(arena.payload_bytes(), 5u);
}

TEST(StringArenaTest, SurvivesChunkGrowthAndOversizedStrings) {
  StringArena arena(/*chunk_bytes=*/32);
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back("string-" + std::to_string(i));
    views.push_back(arena.Store(originals.back()));
  }
  // An oversized string gets its own chunk; later small stores must not
  // overwrite it (regression for the dedicated-chunk offset bug).
  std::string big(500, 'x');
  std::string_view big_view = arena.Store(big);
  for (int i = 100; i < 200; ++i) {
    originals.push_back("string-" + std::to_string(i));
    views.push_back(arena.Store(originals.back()));
  }
  EXPECT_EQ(big_view, big);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]) << i;
  }
  EXPECT_EQ(arena.size(), 201u);
}

}  // namespace
}  // namespace sqlog::log
