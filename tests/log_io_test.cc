#include "log/log_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace sqlog::log {
namespace {

QueryLog SampleLog() {
  QueryLog log;
  LogRecord a;
  a.seq = 0;
  a.timestamp_ms = 1041379200000;
  a.user = "192.168.0.1";
  a.session = "192.168.0.1#1";
  a.statement = "SELECT a, b FROM t WHERE s = 'x,\"y\"'";
  a.row_count = 12;
  a.truth = TruthLabel::kOrganic;
  log.Append(a);

  LogRecord b;
  b.seq = 1;
  b.timestamp_ms = 1041379201000;
  b.user = "";
  b.session = "";
  b.statement = "SELECT *\nFROM multi\nWHERE line = 1";
  b.row_count = -1;
  b.truth = TruthLabel::kDwStifle;
  log.Append(b);
  return log;
}

/// Reads `csv_text` back through LogIo::ReadFile, the CSV reader every
/// command uses.
Result<QueryLog> ReadCsvText(const std::string& csv_text) {
  const std::string path = ::testing::TempDir() + "/sqlog_io_test_text.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << csv_text;
  }
  auto log = LogIo::ReadFile(path, LogFormat::kCsv);
  std::remove(path.c_str());
  return log;
}

TEST(LogIoTest, CsvRoundTrip) {
  QueryLog original = SampleLog();
  std::string csv = LogIo::ToCsv(original);
  auto loaded = ReadCsvText(csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const LogRecord& want = original.records()[i];
    const LogRecord& got = loaded->records()[i];
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.timestamp_ms, want.timestamp_ms);
    EXPECT_EQ(got.user, want.user);
    EXPECT_EQ(got.session, want.session);
    EXPECT_EQ(got.statement, want.statement);
    EXPECT_EQ(got.row_count, want.row_count);
    EXPECT_EQ(got.truth, want.truth);
  }
}

TEST(LogIoTest, CsvHasHeader) {
  std::string csv = LogIo::ToCsv(SampleLog());
  EXPECT_EQ(csv.rfind("seq,timestamp_ms,user,session,row_count,truth,statement\n", 0), 0u);
}

TEST(LogIoTest, ReadFileSkipsBlankLines) {
  auto loaded = ReadCsvText(
      "seq,timestamp_ms,user,session,row_count,truth,statement\n"
      "\n"
      "0,100,u,s,1,organic,SELECT 1\n"
      "\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

TEST(LogIoTest, ReadFileWithoutHeader) {
  auto loaded = ReadCsvText("0,100,u,s,1,organic,SELECT 1\n");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->records()[0].statement, "SELECT 1");
}

TEST(LogIoTest, WrongFieldCountIsError) {
  auto loaded = ReadCsvText("0,100,u\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(LogIoTest, NonNumericSeqIsParseErrorNotZero) {
  // Regression: unchecked strtoull used to read "abc" as seq 0.
  auto loaded = ReadCsvText("abc,100,u,s,1,organic,SELECT 1\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("seq"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos)
      << loaded.status().message();
}

TEST(LogIoTest, TrailingGarbageInTimestampIsParseError) {
  auto loaded = ReadCsvText(
      "seq,timestamp_ms,user,session,row_count,truth,statement\n"
      "0,100,u,s,1,organic,SELECT 1\n"
      "1,200x,u,s,1,organic,SELECT 2\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("timestamp_ms"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status().message();
}

TEST(LogIoTest, OverflowingRowCountIsParseError) {
  auto loaded =
      ReadCsvText("0,100,u,s,123456789012345678901234567890,organic,SELECT 1\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("row_count"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("out of range"), std::string::npos)
      << loaded.status().message();
}

TEST(LogIoTest, StrayHeaderMidFileIsParseError) {
  // A second header means concatenated or corrupted input; it used to be
  // swallowed as a data row (strtoull("seq") == 0).
  auto loaded = ReadCsvText(
      "seq,timestamp_ms,user,session,row_count,truth,statement\n"
      "0,100,u,s,1,organic,SELECT 1\n"
      "seq,timestamp_ms,user,session,row_count,truth,statement\n"
      "1,200,u,s,1,organic,SELECT 2\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("stray header"), std::string::npos)
      << loaded.status().message();
}

TEST(LogIoTest, StatementWithCommasSurvives) {
  QueryLog log;
  LogRecord record;
  record.statement = "SELECT a, b, c FROM t WHERE id IN (1, 2, 3)";
  log.Append(record);
  auto loaded = ReadCsvText(LogIo::ToCsv(log));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records()[0].statement, record.statement);
}

TEST(LogIoTest, FileRoundTrip) {
  QueryLog original = SampleLog();
  std::string path = ::testing::TempDir() + "/sqlog_io_test.csv";
  ASSERT_TRUE(LogIo::WriteFile(original, path).ok());
  auto loaded = LogIo::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(LogIoTest, ReadMissingFileIsIoError) {
  auto loaded = LogIo::ReadFile("/nonexistent/dir/file.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(LogIoTest, WriteToBadPathIsIoError) {
  EXPECT_EQ(LogIo::WriteFile(SampleLog(), "/nonexistent/dir/file.csv").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace sqlog::log
