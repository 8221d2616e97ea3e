// The CSV log codec: AppendCsvRow's escaping, and LogReader's line and
// field rules. Every reader case runs at every chunk_bytes from 1 to the
// input size, so a read boundary lands on every byte: inside quoted
// runs, between a CR and its LF, and between the two quotes of a doubled
// quote. The expected records are written out by hand, and the naive
// reference decoder in tests/oracles must agree with them too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "log/log_stream.h"
#include "log/record.h"
#include "oracles.h"

#ifndef SQLOG_FUZZ_CORPUS_DIR
#error "SQLOG_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

namespace sqlog::log {
namespace {

/// The records a decoder returned, and the status it ended with.
struct Decoded {
  std::vector<LogRecord> records;
  Status status;
};

LogRecord Row(uint64_t seq, std::string user, std::string session, std::string statement) {
  LogRecord record;
  record.seq = seq;
  record.timestamp_ms = static_cast<int64_t>(seq) * 1000;
  record.user = std::move(user);
  record.session = std::move(session);
  record.row_count = 1;
  record.truth = TruthLabel::kOrganic;
  record.statement = std::move(statement);
  return record;
}

/// The row Row(seq, ...) stands for, with `statement` written as is.
std::string RowText(uint64_t seq, std::string_view statement) {
  return std::to_string(seq) + "," + std::to_string(seq * 1000) + ",u,s,1,organic," +
         std::string(statement);
}

Decoded ReadAt(const std::string& path, size_t chunk_bytes) {
  Decoded out;
  LogReaderOptions options;
  options.chunk_bytes = chunk_bytes;
  LogReader reader(options);
  out.status = reader.Open(path);
  // One record reused throughout, as the pipeline's pass 2 does: each
  // read assigns over the previous record's strings.
  LogRecord record;
  bool eof = false;
  while (out.status.ok()) {
    out.status = reader.ReadRecord(&record, &eof);
    if (!out.status.ok() || eof) break;
    out.records.push_back(record);
  }
  return out;
}

::testing::AssertionResult Same(const Decoded& got, const Decoded& want) {
  if (got.status.code() != want.status.code() ||
      got.status.message() != want.status.message()) {
    return ::testing::AssertionFailure() << "ends with '" << got.status.ToString()
                                         << "', want '" << want.status.ToString() << "'";
  }
  if (got.records.size() != want.records.size()) {
    return ::testing::AssertionFailure() << got.records.size() << " records, want "
                                         << want.records.size();
  }
  for (size_t i = 0; i < want.records.size(); ++i) {
    const LogRecord& a = got.records[i];
    const LogRecord& b = want.records[i];
    if (a.seq != b.seq || a.timestamp_ms != b.timestamp_ms || a.user != b.user ||
        a.session != b.session || a.row_count != b.row_count || a.truth != b.truth ||
        a.statement != b.statement) {
      return ::testing::AssertionFailure()
             << "record " << i << " is (" << a.seq << ", " << a.timestamp_ms << ", '"
             << a.user << "', '" << a.session << "', " << a.row_count << ", "
             << TruthLabelName(a.truth) << ", '" << a.statement << "'), want (" << b.seq
             << ", " << b.timestamp_ms << ", '" << b.user << "', '" << b.session << "', "
             << b.row_count << ", " << TruthLabelName(b.truth) << ", '" << b.statement
             << "')";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Decodes `bytes` with the reference decoder, and from a file with a
/// LogReader at every chunk_bytes from 1 to the input size and at the
/// default; every one must return `want`.
void ExpectAtEveryChunkSize(std::string_view bytes, const Decoded& want) {
  Decoded reference;
  reference.status = oracle::DecodeCsvLogReference(bytes, &reference.records);
  ASSERT_TRUE(Same(reference, want)) << "reference decoder";
  const std::string path = ::testing::TempDir() + "/csv_test_input.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  for (size_t chunk = 1; chunk <= std::max<size_t>(bytes.size(), 1); ++chunk) {
    ASSERT_TRUE(Same(ReadAt(path, chunk), want)) << "chunk_bytes " << chunk;
  }
  ASSERT_TRUE(Same(ReadAt(path, LogReaderOptions{}.chunk_bytes), want)) << "default chunk";
  std::remove(path.c_str());
}

Decoded Ok(std::vector<LogRecord> records) { return {std::move(records), Status::OK()}; }

std::string CsvRow(const LogRecord& record) {
  std::string out;
  AppendCsvRow(record, record.seq, out);
  return out;
}

TEST(CsvTest, PlainFieldsNeedNoQuoting) {
  EXPECT_EQ(CsvRow(Row(7, "alice", "alice#1", "SELECT 1")),
            "7,7000,alice,alice#1,1,organic,SELECT 1\n");
  EXPECT_EQ(CsvRow(Row(0, "", "", "")), "0,0,,,1,organic,\n");
}

TEST(CsvTest, FieldsWithSeparatorAreQuoted) {
  EXPECT_EQ(CsvRow(Row(1, "a,b", "s", "SELECT a, b FROM t")),
            "1,1000,\"a,b\",s,1,organic,\"SELECT a, b FROM t\"\n");
}

TEST(CsvTest, EmbeddedQuotesAreDoubled) {
  EXPECT_EQ(CsvRow(Row(1, "u", "say \"hi\"", "\"")),
            "1,1000,u,\"say \"\"hi\"\"\",1,organic,\"\"\"\"\n");
}

TEST(CsvTest, LineBreaksForceQuoting) {
  EXPECT_EQ(CsvRow(Row(1, "a\nb", "c\rd", "SELECT 1\r\nFROM t")),
            "1,1000,\"a\nb\",\"c\rd\",1,organic,\"SELECT 1\r\nFROM t\"\n");
}

TEST(CsvTest, IntegersAreWrittenInFull) {
  LogRecord record = Row(0, "u", "s", "SELECT 1");
  record.timestamp_ms = std::numeric_limits<int64_t>::min();
  record.row_count = -1;
  record.truth = TruthLabel::kNonSargable;
  std::string out;
  AppendCsvRow(record, std::numeric_limits<uint64_t>::max(), out);
  EXPECT_EQ(out,
            "18446744073709551615,-9223372036854775808,u,s,-1,non_sargable,SELECT 1\n");
}

TEST(CsvTest, ReaderAppliesTheQuoteRulesToEveryField) {
  // Quoted separators, doubled quotes, empty fields, quotes opening and
  // closing mid-field, and quoted numbers.
  const std::string text =
      "0,0,\"a,b\",\"d\"\"q\",1,organic,\"SELECT '\"\"' FROM quotes\"\n"
      "1,1000,,,1,organic,\n"
      "2,2000,u,\"\",1,organic,mid\"dle, quoted\"run\n"
      "\"3\",\"3000\",u,s,\"1\",\"organic\",\"\"\"\"\"\"\n";
  ExpectAtEveryChunkSize(text, Ok({Row(0, "a,b", "d\"q", "SELECT '\"' FROM quotes"),
                                   Row(1, "", "", ""), Row(2, "u", "", "middle, quotedrun"),
                                   Row(3, "u", "s", "\"\"")}));
}

TEST(CsvTest, RowsRoundTripThroughTheWriter) {
  const std::vector<LogRecord> rows = {
      Row(0, "alice", "alice#1", "SELECT a, b FROM t WHERE s = 'x,\"y\"'\nAND b > 1"),
      Row(1, "", "", "SELECT '\"' FROM quotes"),
      Row(2, "eve,comma", "e\"q", "SELECT 1\r\nFROM crlf\r"),
      Row(3, "d", "s", " SELECT padded FROM spaces "),
      Row(4, "\"", "\"\"", "\n"),
  };
  std::string text;
  for (const LogRecord& row : rows) AppendCsvRow(row, row.seq, text);
  ExpectAtEveryChunkSize(text, Ok(rows));
}

// Every stateful construct of the line scan: doubled quotes inside
// quoted fields, a quoted newline, CRLF and lone-CR terminators, and an
// unterminated final line. A boundary inside a `""` pair must not flip
// the quote state, and one between a CR and its LF must not add a line.
TEST(CsvTest, ReaderSplitsLinesAtEveryChunkSize) {
  const std::string text = RowText(0, "\"x\"\"y\"\n") +
                           RowText(1, "\"line\nbreak\"\r\n") +
                           RowText(2, "\"\"\"lead\"\r") +
                           RowText(3, "plain\r\n") +
                           RowText(4, "\"trail\"\"\"\n") +
                           RowText(5, "last");
  ExpectAtEveryChunkSize(text, Ok({Row(0, "u", "s", "x\"y"), Row(1, "u", "s", "line\nbreak"),
                                   Row(2, "u", "s", "\"lead"), Row(3, "u", "s", "plain"),
                                   Row(4, "u", "s", "trail\""), Row(5, "u", "s", "last")}));
}

// Line numbers show every logical line the reader saw: a phantom empty
// line from a CRLF split across reads would move the error to line 3.
TEST(CsvTest, CrLfSplitAcrossReadsIsOneTerminator) {
  const std::string text = RowText(0, "SELECT 1\r\n") + "1,1000,u,s,1,organic\n";
  Decoded want = Ok({Row(0, "u", "s", "SELECT 1")});
  want.status = Status::ParseError("line 2: expected 7 CSV fields, got 6");
  ExpectAtEveryChunkSize(text, want);
}

TEST(CsvTest, LoneCrBeforeAnotherByteEndsTheLine) {
  ExpectAtEveryChunkSize(RowText(0, "SELECT 1\r") + RowText(1, "SELECT 2\n"),
                         Ok({Row(0, "u", "s", "SELECT 1"), Row(1, "u", "s", "SELECT 2")}));
}

TEST(CsvTest, TrailingCrAtEofEndsTheFinalLine) {
  ExpectAtEveryChunkSize(RowText(0, "SELECT 1\r"), Ok({Row(0, "u", "s", "SELECT 1")}));
  // LF, then an empty CR-terminated line.
  ExpectAtEveryChunkSize(RowText(0, "SELECT 1\n\r"), Ok({Row(0, "u", "s", "SELECT 1")}));
}

TEST(CsvTest, DoubledQuoteSplitAcrossReadsStaysInsideTheField) {
  ExpectAtEveryChunkSize(RowText(0, "\"ab\"\"cd\nef\",x\n"),
                         {{}, Status::ParseError("line 1: expected 7 CSV fields, got 8")});
  ExpectAtEveryChunkSize(RowText(0, "\"ab\"\"cd\nef\"\n"),
                         Ok({Row(0, "u", "s", "ab\"cd\nef")}));
}

TEST(CsvTest, BlankLinesAndTheHeaderCountAsLines) {
  const std::string text = std::string(kLogCsvHeader) + "\n\n \t\r\n" + RowText(0, "SELECT 1") +
                           "\n\n" + "1,1000,u,s,1,organic\n";
  Decoded want = Ok({Row(0, "u", "s", "SELECT 1")});
  want.status = Status::ParseError("line 6: expected 7 CSV fields, got 6");
  ExpectAtEveryChunkSize(text, want);
}

// A record cut off inside a quoted field fails on its own line, after
// every complete record before it. (The line-string reader failed as
// soon as its last read ended inside quotes, before returning record 0,
// and named the line after the last one it had returned.)
TEST(CsvTest, TruncatedQuoteFailsOnItsOwnLineAfterTheCompleteRecords) {
  const std::string text = RowText(0, "SELECT 1\n") + "\n" +
                           RowText(1, "\"SELECT 2\nFROM never_closed");
  Decoded want = Ok({Row(0, "u", "s", "SELECT 1")});
  want.status = Status::ParseError("line 3: input truncated inside a quoted field");
  ExpectAtEveryChunkSize(text, want);
}

// Every fuzz corpus entry (SQL, binary logs, solver seeds, CSV logs:
// quotes, CRs and high bytes in arbitrary places) must decode the same
// at every chunk size as with the reference decoder.
TEST(CsvTest, ReaderMatchesTheReferenceOnTheFuzzCorpus) {
  namespace fs = std::filesystem;
  const fs::path root(SQLOG_FUZZ_CORPUS_DIR);
  size_t entries = 0;
  for (const auto& file : fs::recursive_directory_iterator(root)) {
    if (!file.is_regular_file()) continue;
    std::ifstream in(file.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Decoded want;
    want.status = oracle::DecodeCsvLogReference(bytes, &want.records);
    SCOPED_TRACE(file.path().lexically_relative(root).string());
    ExpectAtEveryChunkSize(bytes, want);
    ++entries;
  }
  EXPECT_GT(entries, 0u);
}

}  // namespace
}  // namespace sqlog::log
