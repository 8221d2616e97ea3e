// Round-trip and corruption battery for the `.sqb` binary log format.
//
// Round-trip: CSV → .sqb → CSV must be byte-identical — for the
// calibrated generator log and for logs built from the checked-in fuzz
// corpus statements (hostile quoting, newlines, non-lexing bytes) — at
// block sizes 1, 7, 4096 and one-block-per-file, through all three
// reader sources (borrowed buffer, mmap, streamed file).
//
// Corruption: every single-bit flip and every truncation of a valid
// file must either decode deterministically or fail with a structured
// ParseError naming the offset and section — never crash. The shape of
// the rejection is enforced by oracle::CheckBinLogRobustness, the same
// oracle fuzz_binlog drives.

#include "log/binlog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/parse_cache.h"
#include "log/binlog_format.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "tests/oracles/oracles.h"

#ifndef SQLOG_FUZZ_CORPUS_DIR
#error "SQLOG_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

namespace sqlog::log {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Writes `log` as `.sqb` with the given block size and returns the raw
// file bytes. Asserts the writer accepts every record.
std::string WriteSqb(const QueryLog& log, size_t block_records,
                     BinLogWriter* out_writer = nullptr) {
  BinLogWriterOptions options;
  options.block_records = block_records;
  options.recipe_builder = core::BuildStatementRecipe;
  BinLogWriter writer(options);
  const std::string path = TempPath("binlog_test_write.sqb");
  Status open = writer.Open(path);
  EXPECT_TRUE(open.ok()) << open.ToString();
  for (const LogRecord& record : log.records()) {
    Status append = writer.Append(record);
    EXPECT_TRUE(append.ok()) << append.ToString();
  }
  Status close = writer.Close();
  EXPECT_TRUE(close.ok()) << close.ToString();
  if (out_writer != nullptr) {
    // Counters survive Close(); hand them back for assertions.
    *out_writer = std::move(writer);
  }
  return Slurp(path);
}

// Decodes `bytes` with OpenFromBuffer and returns the records.
QueryLog ReadSqbBuffer(std::string_view bytes) {
  BinLogReader reader;
  Status open = reader.OpenFromBuffer(bytes);
  EXPECT_TRUE(open.ok()) << open.ToString();
  QueryLog log;
  LogRecord record;
  bool eof = false;
  while (true) {
    Status read = reader.ReadRecord(&record, &eof);
    EXPECT_TRUE(read.ok()) << read.ToString();
    if (!read.ok() || eof) break;
    log.Append(record);
  }
  EXPECT_EQ(log.size(), reader.record_count());
  return log;
}

void ExpectSameRecords(const QueryLog& want, const QueryLog& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const LogRecord& w = want.records()[i];
    const LogRecord& g = got.records()[i];
    EXPECT_EQ(g.seq, w.seq) << "record " << i;
    EXPECT_EQ(g.timestamp_ms, w.timestamp_ms) << "record " << i;
    EXPECT_EQ(g.user, w.user) << "record " << i;
    EXPECT_EQ(g.session, w.session) << "record " << i;
    EXPECT_EQ(g.row_count, w.row_count) << "record " << i;
    EXPECT_EQ(g.truth, w.truth) << "record " << i;
    EXPECT_EQ(g.statement, w.statement) << "record " << i;
  }
}

QueryLog GeneratorLog(size_t statements) {
  GeneratorConfig config;
  config.target_statements = statements;
  config.human_users = 40;
  return GenerateLog(config);
}

// One record per checked-in fuzz corpus file: the statements exercise
// hostile quoting, embedded newlines/CRs, non-lexing byte soup (the
// writer's verbatim fallback) and every SQL construct the other
// harnesses cover.
QueryLog CorpusLog() {
  QueryLog log;
  uint64_t seq = 0;
  std::vector<fs::path> files;
  for (const char* harness : {"lexer", "parser", "printer", "skeleton"}) {
    const fs::path dir = fs::path(SQLOG_FUZZ_CORPUS_DIR) / harness;
    if (!fs::exists(dir)) continue;
    for (const auto& file : fs::recursive_directory_iterator(dir)) {
      if (file.is_regular_file()) files.push_back(file.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    LogRecord record;
    record.seq = seq;
    record.timestamp_ms = 1041379200000 + static_cast<int64_t>(seq) * 137;
    record.user = (seq % 3 == 0) ? "" : "10.0.0." + std::to_string(seq % 7);
    record.session = record.user.empty() ? "" : record.user + "#1";
    record.row_count = (seq % 5 == 0) ? -1 : static_cast<int64_t>(seq * 11);
    record.truth = (seq % 2 == 0) ? TruthLabel::kOrganic : TruthLabel::kDwStifle;
    record.statement = Slurp(path.string());
    ++seq;
    log.Append(record);
  }
  return log;
}

class BinLogRoundTripTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(BlockSizes, BinLogRoundTripTest,
                         ::testing::Values<size_t>(1, 7, 4096, 1u << 20));

TEST_P(BinLogRoundTripTest, GeneratorLogIsByteIdentical) {
  const QueryLog original = GeneratorLog(2000);
  const std::string bytes = WriteSqb(original, GetParam());
  const QueryLog decoded = ReadSqbBuffer(bytes);
  ExpectSameRecords(original, decoded);
  // The CSV serializations — the format the rest of the repo golden-tests
  // against — must match byte for byte.
  EXPECT_EQ(LogIo::ToCsv(decoded), LogIo::ToCsv(original));
}

TEST_P(BinLogRoundTripTest, FuzzCorpusStatementsAreByteIdentical) {
  const QueryLog original = CorpusLog();
  ASSERT_GT(original.size(), 20u) << "fuzz corpus unexpectedly small";
  const std::string bytes = WriteSqb(original, GetParam());
  const QueryLog decoded = ReadSqbBuffer(bytes);
  ExpectSameRecords(original, decoded);
  EXPECT_EQ(LogIo::ToCsv(decoded), LogIo::ToCsv(original));
}

TEST(BinLogTest, AllReaderSourcesAgree) {
  const QueryLog original = GeneratorLog(500);
  const std::string bytes = WriteSqb(original, 64);
  const std::string path = TempPath("binlog_sources.sqb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const QueryLog from_buffer = ReadSqbBuffer(bytes);

  BinLogReader mapped;  // default: mmap when the platform has it
  ASSERT_TRUE(mapped.Open(path).ok());

  BinLogReaderOptions no_mmap;
  no_mmap.use_mmap = false;
  BinLogReader streamed(no_mmap);
  ASSERT_TRUE(streamed.Open(path).ok());
  EXPECT_FALSE(streamed.mapped());

  for (BinLogReader* reader : {&mapped, &streamed}) {
    QueryLog got;
    LogRecord record;
    bool eof = false;
    while (true) {
      Status read = reader->ReadRecord(&record, &eof);
      ASSERT_TRUE(read.ok()) << read.ToString();
      if (eof) break;
      got.Append(record);
    }
    ExpectSameRecords(from_buffer, got);
  }
  ExpectSameRecords(original, from_buffer);
}

TEST(BinLogTest, EmptyLogRoundTrips) {
  const QueryLog empty;
  const std::string bytes = WriteSqb(empty, 4096);
  BinLogReader reader;
  ASSERT_TRUE(reader.OpenFromBuffer(bytes).ok());
  EXPECT_EQ(reader.record_count(), 0u);
  EXPECT_EQ(reader.block_count(), 0u);
  LogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&record, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(BinLogTest, LiteralTwinsShareOneDictionaryEntry) {
  QueryLog log;
  const char* statements[] = {
      "SELECT a FROM t WHERE x = 1",
      "SELECT a FROM t WHERE x = 2",
      "SELECT a FROM t WHERE x = 99885",
      "SELECT a FROM t WHERE x = 'text'",
  };
  uint64_t seq = 0;
  for (const char* s : statements) {
    LogRecord record;
    record.seq = seq;
    record.timestamp_ms = 1000 + static_cast<int64_t>(seq);
    record.statement = s;
    ++seq;
    log.Append(record);
  }
  BinLogWriter writer;
  const std::string bytes = WriteSqb(log, 4096, &writer);
  // The three numeric twins intern one template. The string variant keys
  // differently (the normalized key carries the token type, so <num> and
  // <str> placeholders are distinct templates) and adds a second entry.
  EXPECT_EQ(writer.dictionary_size(), 2u);
  EXPECT_EQ(writer.verbatim_records(), 0u);
  ExpectSameRecords(log, ReadSqbBuffer(bytes));
}

TEST(BinLogTest, NonLexingStatementsFallBackToVerbatim) {
  QueryLog log;
  LogRecord record;
  record.seq = 0;
  record.timestamp_ms = 7;
  record.statement = std::string("SELECT '\x01 unterminated \xff\xfe");
  log.Append(record);
  record.seq = 1;
  record.timestamp_ms = 8;
  record.statement = std::string("bytes\0with\0nul", 14);
  log.Append(record);

  BinLogWriter writer;
  const std::string bytes = WriteSqb(log, 4096, &writer);
  EXPECT_GE(writer.verbatim_records(), 1u);
  // Verbatim or not, the round trip stays exact.
  ExpectSameRecords(log, ReadSqbBuffer(bytes));
}

TEST(BinLogTest, RenumberAssignsOutputPositions) {
  QueryLog log;
  for (uint64_t seq : {900u, 17u, 404u}) {
    LogRecord record;
    record.seq = seq;
    record.timestamp_ms = 50;
    record.statement = "SELECT 1";
    log.Append(record);
  }
  BinLogWriterOptions options;
  options.renumber = true;
  BinLogWriter writer(options);
  const std::string path = TempPath("binlog_renumber.sqb");
  ASSERT_TRUE(writer.Open(path).ok());
  for (const LogRecord& record : log.records()) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  const QueryLog decoded = ReadSqbBuffer(Slurp(path));
  ASSERT_EQ(decoded.size(), 3u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded.records()[i].seq, i);
  }
}

TEST(BinLogTest, DictionaryRecipesSeedTheParseCache) {
  QueryLog log;
  LogRecord record;
  record.seq = 0;
  record.timestamp_ms = 1;
  record.statement = "SELECT name FROM users WHERE id = 42";
  log.Append(record);
  record.seq = 1;
  record.timestamp_ms = 2;
  record.statement = "INSERT INTO t VALUES (1)";  // non-SELECT: no recipe
  log.Append(record);

  const std::string bytes = WriteSqb(log, 4096);
  BinLogReader reader;
  ASSERT_TRUE(reader.OpenFromBuffer(bytes).ok());
  ASSERT_EQ(reader.dictionary().size(), 2u);

  size_t usable = 0;
  for (const auto& entry : reader.dictionary()) {
    auto seeded = core::DeserializeStatementRecipe(entry.text, entry.recipe);
    if (entry.recipe.empty()) {
      EXPECT_EQ(seeded, nullptr);
    } else {
      EXPECT_NE(seeded, nullptr) << entry.text;
    }
    if (seeded != nullptr) ++usable;
  }
  EXPECT_EQ(usable, 1u);  // the SELECT template carries a validated recipe
}

// --- Corruption battery -------------------------------------------------
//
// A small but fully featured file (multiple blocks, both dictionary and
// verbatim statements, non-empty string table) keeps the every-byte
// sweeps fast while still covering every section of the wire format.

std::string CorruptionSubject() {
  QueryLog log;
  const char* statements[] = {
      "SELECT a FROM t WHERE x = 1",
      "SELECT a FROM t WHERE x = 2",
      "\xff not sql at all",
      "SELECT b, c FROM u WHERE y < 10 AND z = 'q'",
      "SELECT a FROM t WHERE x = 3",
  };
  uint64_t seq = 0;
  for (const char* s : statements) {
    LogRecord record;
    record.seq = seq;
    record.timestamp_ms = 1041379200000 + static_cast<int64_t>(seq) * 1000;
    record.user = "u" + std::to_string(seq % 2);
    record.session = record.user + "#1";
    record.row_count = static_cast<int64_t>(seq);
    record.truth = TruthLabel::kOrganic;
    record.statement = s;
    ++seq;
    log.Append(record);
  }
  return WriteSqb(log, /*block_records=*/2);
}

TEST(BinLogCorruptionTest, EveryBitFlipIsHandledStructurally) {
  const std::string valid = CorruptionSubject();
  ASSERT_TRUE(oracle::CheckBinLogRobustness(valid).ok);
  std::string mutant = valid;
  for (size_t i = 0; i < valid.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[i] = static_cast<char>(valid[i] ^ (1 << bit));
      oracle::OracleResult result = oracle::CheckBinLogRobustness(mutant);
      ASSERT_TRUE(result.ok)
          << "bit " << bit << " of byte " << i << ": " << result.message;
    }
    mutant[i] = valid[i];
  }
}

TEST(BinLogCorruptionTest, EveryTruncationIsHandledStructurally) {
  const std::string valid = CorruptionSubject();
  for (size_t len = 0; len < valid.size(); ++len) {
    oracle::OracleResult result =
        oracle::CheckBinLogRobustness(std::string_view(valid).substr(0, len));
    ASSERT_TRUE(result.ok) << "truncated to " << len << ": " << result.message;
    // A strict prefix of a valid file must never decode as valid.
    BinLogReader reader;
    EXPECT_FALSE(reader.OpenFromBuffer(std::string_view(valid).substr(0, len)).ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(BinLogCorruptionTest, BadMagicIsRejectedByName) {
  std::string mutant = CorruptionSubject();
  mutant[0] = 'X';
  BinLogReader reader;
  Status status = reader.OpenFromBuffer(mutant);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("magic"), std::string::npos) << status.ToString();
}

TEST(BinLogCorruptionTest, FutureVersionIsRejectedByName) {
  std::string mutant = CorruptionSubject();
  mutant[8] = 2;  // version u32 little-endian at offset 8
  BinLogReader reader;
  Status status = reader.OpenFromBuffer(mutant);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("unsupported format version 2"),
            std::string::npos)
      << status.ToString();
}

TEST(BinLogCorruptionTest, UnknownFlagsAreRejectedByName) {
  std::string mutant = CorruptionSubject();
  mutant[12] = 1;  // flags u32 little-endian at offset 12
  BinLogReader reader;
  Status status = reader.OpenFromBuffer(mutant);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("flags"), std::string::npos) << status.ToString();
}

TEST(BinLogCorruptionTest, BlockPayloadFlipTripsTheChecksum) {
  const std::string valid = CorruptionSubject();
  // First block payload starts right after the 16-byte header plus the
  // 20-byte block frame.
  std::string mutant = valid;
  const size_t payload_byte = binfmt::kHeaderBytes + binfmt::kBlockFrameBytes;
  ASSERT_LT(payload_byte, mutant.size());
  mutant[payload_byte] = static_cast<char>(mutant[payload_byte] ^ 0x40);
  BinLogReader reader;
  Status status = reader.OpenFromBuffer(mutant);
  LogRecord record;
  bool eof = false;
  while (status.ok() && !eof) {
    status = reader.ReadRecord(&record, &eof);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("block"), std::string::npos) << status.ToString();
}

TEST(BinLogCorruptionTest, InflatedRecordCountIsRejectedAtOpen) {
  // The first index row and the footer both claim 2^40 more records,
  // with every checksum recomputed: the counts agree with each other, so
  // only the per-block payload bound can catch it — at Open, before a
  // caller sizes anything by record_count().
  const std::string valid = CorruptionSubject();
  const size_t footer_at = valid.size() - binfmt::kFooterBytes;
  auto footer =
      binfmt::Footer::Parse(std::string_view(valid).substr(footer_at), footer_at);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  const size_t index_at = footer->index_offset + binfmt::kSectionFrameBytes;
  binfmt::ByteReader reader(std::string_view(valid).substr(index_at, footer_at - index_at),
                            index_at, "index");
  uint64_t rows = 0;
  ASSERT_TRUE(reader.ReadVarint(&rows).ok());
  std::string index;
  binfmt::AppendVarint(rows, &index);
  constexpr uint64_t kExtra = uint64_t{1} << 40;
  for (uint64_t i = 0; i < rows; ++i) {
    uint64_t offset_delta = 0;
    uint64_t records = 0;
    int64_t ts_delta = 0;
    ASSERT_TRUE(reader.ReadVarint(&offset_delta).ok());
    ASSERT_TRUE(reader.ReadVarint(&records).ok());
    ASSERT_TRUE(reader.ReadZigzag(&ts_delta).ok());
    binfmt::AppendVarint(offset_delta, &index);
    binfmt::AppendVarint(i == 0 ? records + kExtra : records, &index);
    binfmt::AppendZigzag(ts_delta, &index);
  }
  std::string mutant = valid.substr(0, footer->index_offset);
  binfmt::AppendU32(binfmt::kIndexMagic, &mutant);
  binfmt::AppendU64(index.size(), &mutant);
  binfmt::AppendU64(Fnv1a64(index), &mutant);
  mutant += index;
  footer->record_count += kExtra;
  footer->AppendTo(&mutant);

  BinLogReader bin;
  Status status = bin.OpenFromBuffer(mutant);
  ASSERT_FALSE(status.ok()) << "opened with record_count() = " << bin.record_count();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("block 0 record count exceeds its payload size"),
            std::string::npos)
      << status.ToString();
}

TEST(BinLogCorruptionTest, StreamingReaderRejectsCorruptionToo) {
  const std::string valid = CorruptionSubject();
  // Flip one byte in the middle; write to disk; both reader modes must
  // reject (at open or during block reads), never crash.
  std::string mutant = valid;
  mutant[mutant.size() / 2] = static_cast<char>(mutant[mutant.size() / 2] ^ 0x10);
  const std::string path = TempPath("binlog_corrupt.sqb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
  }
  for (bool use_mmap : {true, false}) {
    BinLogReaderOptions options;
    options.use_mmap = use_mmap;
    BinLogReader reader(options);
    Status status = reader.Open(path);
    LogRecord record;
    bool eof = false;
    while (status.ok() && !eof) {
      status = reader.ReadRecord(&record, &eof);
    }
    ASSERT_FALSE(status.ok()) << "mmap=" << use_mmap;
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace sqlog::log
