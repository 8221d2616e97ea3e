// Round-trip and corruption battery for the `.sqb` binary log format.
//
// Round-trip: CSV → .sqb → CSV must be byte-identical — for the
// calibrated generator log and for logs built from the checked-in fuzz
// corpus statements (hostile quoting, newlines, non-lexing bytes) — at
// block sizes 1, 7, 4096 and one-block-per-file, through both reader
// sources (borrowed buffer, file).
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
#include <functional>
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

TEST(BinLogTest, FileAndBufferReadersAgree) {
  const QueryLog original = GeneratorLog(500);
  const std::string bytes = WriteSqb(original, 64);
  const std::string path = TempPath("binlog_sources.sqb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const QueryLog from_buffer = ReadSqbBuffer(bytes);
  ExpectSameRecords(original, from_buffer);

  // Half the records through one owner, the rest after a move: the
  // reader carries its position and its last shape with it.
  BinLogReader moved_from;
  ASSERT_TRUE(moved_from.Open(path).ok());
  QueryLog from_file;
  LogRecord record;
  bool eof = false;
  for (size_t i = 0; i < original.size() / 2; ++i) {
    ASSERT_TRUE(moved_from.ReadRecord(&record, &eof).ok());
    ASSERT_FALSE(eof);
    from_file.Append(record);
  }
  const RecordShape* shape = moved_from.last_shape();
  BinLogReader reader = std::move(moved_from);
  EXPECT_EQ(reader.last_shape(), shape);
  while (true) {
    Status read = reader.ReadRecord(&record, &eof);
    ASSERT_TRUE(read.ok()) << read.ToString();
    if (eof) break;
    from_file.Append(record);
  }
  ExpectSameRecords(from_buffer, from_file);
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

TEST(BinLogCorruptionTest, FileReaderRejectsCorruptionToo) {
  const std::string valid = CorruptionSubject();
  // Flip one byte in the middle; write to disk; the file reader must
  // reject it (at open or during block reads), never crash.
  std::string mutant = valid;
  mutant[mutant.size() / 2] = static_cast<char>(mutant[mutant.size() / 2] ^ 0x10);
  const std::string path = TempPath("binlog_corrupt.sqb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
  }
  BinLogReader reader;
  Status status = reader.Open(path);
  LogRecord record;
  bool eof = false;
  while (status.ok() && !eof) {
    status = reader.ReadRecord(&record, &eof);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}


// --- I/O failures name the file ----------------------------------------

TEST(BinLogIoTest, WriteFailureNamesTheFile) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full is not available";
  const QueryLog log = GeneratorLog(2000);
  BinLogWriter writer;
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

TEST(BinLogIoTest, StreamedReadFailureNamesTheFile) {
  // The reader reads blocks on demand, so a file truncated after Open
  // fails at the first block read: an IoError naming the file, for the
  // reader made directly and the one LogIo::OpenLogReader makes. A
  // memory-mapped file cut to 0 bytes would raise SIGBUS here instead,
  // and one cut inside its first page would read zeros.
  const std::string bytes = WriteSqb(GeneratorLog(500), 64);
  const std::string path = TempPath("binlog_truncated_after_open.sqb");
  for (uintmax_t length : {uintmax_t{0}, uintmax_t{binfmt::kHeaderBytes}}) {
    for (bool through_log_io : {false, true}) {
      SCOPED_TRACE(std::string(through_log_io ? "LogIo::OpenLogReader" : "BinLogReader") +
                   ", truncated to " + std::to_string(length) + " bytes");
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      std::unique_ptr<RecordReader> reader;
      if (through_log_io) {
        auto opened = LogIo::OpenLogReader(path);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        ASSERT_NE(dynamic_cast<BinLogReader*>(opened->get()), nullptr);
        reader = std::move(*opened);
      } else {
        reader = std::make_unique<BinLogReader>();
        ASSERT_TRUE(reader->Open(path).ok());
      }
      fs::resize_file(path, length);
      LogRecord record;
      bool eof = false;
      Status status = reader->ReadRecord(&record, &eof);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kIoError);
      EXPECT_NE(status.message().find(path), std::string::npos) << status.ToString();
    }
  }
}

// --- Re-encoding from the reader's shapes -------------------------------
//
// BinLogWriter::AppendShaped must write exactly the bytes Append writes.
// Each case below re-encodes a source file both ways and compares; the
// fallback cases also pin that their records took the lexing path. The
// malformed sources are writer-produced files patched through SqbParts,
// which recomputes every checksum, offset and count.

/// A `.sqb` file split into the parts a test edits; Join() re-frames them.
struct SqbParts {
  std::string header;
  std::vector<std::string> blocks;  // block payloads
  std::vector<uint32_t> block_records;
  std::vector<int64_t> first_timestamps;
  std::string dictionary;  // section payloads
  std::string strings;
  binfmt::Footer footer;

  static SqbParts Split(const std::string& file) {
    SqbParts parts;
    const size_t footer_at = file.size() - binfmt::kFooterBytes;
    auto footer = binfmt::Footer::Parse(std::string_view(file).substr(footer_at), footer_at);
    EXPECT_TRUE(footer.ok()) << footer.status().ToString();
    parts.footer = *footer;
    parts.header = file.substr(0, binfmt::kHeaderBytes);
    auto section = [&](uint64_t begin, uint64_t end) {
      return file.substr(begin + binfmt::kSectionFrameBytes,
                         end - begin - binfmt::kSectionFrameBytes);
    };
    parts.dictionary = section(footer->dict_offset, footer->strings_offset);
    parts.strings = section(footer->strings_offset, footer->index_offset);
    const std::string index = section(footer->index_offset, footer_at);
    binfmt::ByteReader reader(index, 0, "index");
    uint64_t rows = 0;
    EXPECT_TRUE(reader.ReadVarint(&rows).ok());
    uint64_t offset = binfmt::kHeaderBytes;
    int64_t timestamp = 0;
    for (uint64_t i = 0; i < rows; ++i) {
      uint64_t offset_delta = 0;
      uint64_t records = 0;
      int64_t ts_delta = 0;
      EXPECT_TRUE(reader.ReadVarint(&offset_delta).ok());
      EXPECT_TRUE(reader.ReadVarint(&records).ok());
      EXPECT_TRUE(reader.ReadZigzag(&ts_delta).ok());
      offset += offset_delta;
      timestamp += ts_delta;
      binfmt::ByteReader frame(std::string_view(file).substr(offset + 4, 4), 0, "block");
      uint32_t payload_len = 0;
      EXPECT_TRUE(frame.ReadU32(&payload_len).ok());
      parts.blocks.push_back(file.substr(offset + binfmt::kBlockFrameBytes, payload_len));
      parts.block_records.push_back(static_cast<uint32_t>(records));
      parts.first_timestamps.push_back(timestamp);
    }
    return parts;
  }

  std::string Join() const {
    std::string out = header;
    std::string index;
    binfmt::AppendVarint(blocks.size(), &index);
    uint64_t previous_offset = binfmt::kHeaderBytes;
    int64_t previous_ts = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      binfmt::AppendVarint(out.size() - previous_offset, &index);
      binfmt::AppendVarint(block_records[i], &index);
      binfmt::AppendZigzag(first_timestamps[i] - previous_ts, &index);
      previous_offset = out.size();
      previous_ts = first_timestamps[i];
      binfmt::AppendU32(binfmt::kBlockMagic, &out);
      binfmt::AppendU32(static_cast<uint32_t>(blocks[i].size()), &out);
      binfmt::AppendU32(block_records[i], &out);
      binfmt::AppendU64(Fnv1a64(blocks[i]), &out);
      out += blocks[i];
    }
    auto append_section = [&](uint32_t magic, const std::string& payload) {
      binfmt::AppendU32(magic, &out);
      binfmt::AppendU64(payload.size(), &out);
      binfmt::AppendU64(Fnv1a64(payload), &out);
      out += payload;
    };
    binfmt::Footer joined = footer;
    joined.dict_offset = out.size();
    append_section(binfmt::kDictMagic, dictionary);
    joined.strings_offset = out.size();
    append_section(binfmt::kStringsMagic, strings);
    joined.index_offset = out.size();
    append_section(binfmt::kIndexMagic, index);
    joined.AppendTo(&out);
    return out;
  }

  /// Replaces the last block's trailing bytes — the statement encoding
  /// of the file's last record — `old_tail` with `new_tail`.
  void ReplaceLastStatement(std::string_view old_tail, std::string_view new_tail) {
    std::string& block = blocks.back();
    ASSERT_GE(block.size(), old_tail.size());
    ASSERT_EQ(std::string_view(block).substr(block.size() - old_tail.size()), old_tail);
    block.replace(block.size() - old_tail.size(), old_tail.size(), new_tail);
  }
};

/// The dictionary section payload for `entries`, as BinLogWriter::Close
/// encodes it.
std::string EncodeDictionary(const std::vector<BinLogReader::DictionaryEntry>& entries) {
  std::string payload;
  binfmt::AppendVarint(entries.size(), &payload);
  for (const auto& entry : entries) {
    binfmt::AppendVarint(entry.text.size(), &payload);
    payload += entry.text;
    binfmt::AppendVarint(entry.spans.size(), &payload);
    uint32_t previous_end = 0;
    for (const auto& [start, length] : entry.spans) {
      binfmt::AppendVarint(start - previous_end, &payload);
      binfmt::AppendVarint(length, &payload);
      previous_end = start + length;
    }
    binfmt::AppendVarint(entry.recipe.size(), &payload);
    payload += entry.recipe;
  }
  return payload;
}

QueryLog StatementLog(std::initializer_list<const char*> statements) {
  QueryLog log;
  for (const char* statement : statements) {
    LogRecord record;
    record.seq = log.size();
    record.timestamp_ms = 1000 + static_cast<int64_t>(log.size());
    record.user = "u";
    record.statement = statement;
    log.Append(record);
  }
  return log;
}

/// Packed-constant encodings, as AppendPackedConstant writes them.
std::string PackedInt(int64_t value) {
  std::string out;
  binfmt::AppendVarint(1, &out);  // kind 1: integer
  binfmt::AppendZigzag(value, &out);
  return out;
}
std::string PackedRaw(std::string_view text) {
  std::string out;
  binfmt::AppendVarint(static_cast<uint64_t>(text.size()) << 2, &out);  // kind 0: raw
  out += text;
  return out;
}
/// A template reference to dictionary entry `dict_id` followed by its
/// packed constants.
std::string TemplateRef(uint64_t dict_id, std::string_view constants) {
  std::string out;
  binfmt::AppendVarint(dict_id + 1, &out);
  out += constants;
  return out;
}

struct Reencoded {
  std::string lexed;   // every record through Append
  std::string shaped;  // every record through AppendShaped(record, last_shape())
  uint64_t shaped_records = 0;
};

/// Re-encodes `source` both ways. `prelude` is appended first (through
/// Append) to both outputs; `edit` may change a record before it is
/// appended, while the shaped leg still passes the record's source shape.
Reencoded ReencodeBothWays(const std::string& source, const QueryLog& prelude = {},
                           const std::function<void(LogRecord&)>& edit = {}) {
  Reencoded out;
  for (bool shaped : {false, true}) {
    BinLogReader reader;
    Status status = reader.OpenFromBuffer(source);
    EXPECT_TRUE(status.ok()) << status.ToString();
    BinLogWriter writer;
    if (shaped) writer.SetSource(&reader);
    const std::string path = TempPath(shaped ? "binlog_shaped.sqb" : "binlog_lexed.sqb");
    EXPECT_TRUE(writer.Open(path).ok());
    for (const LogRecord& record : prelude.records()) EXPECT_TRUE(writer.Append(record).ok());
    LogRecord record;
    bool eof = false;
    while (status.ok()) {
      status = reader.ReadRecord(&record, &eof);
      EXPECT_TRUE(status.ok()) << status.ToString();
      if (eof) break;
      if (edit) edit(record);
      status = shaped ? writer.AppendShaped(record, reader.last_shape()) : writer.Append(record);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    EXPECT_TRUE(writer.Close().ok());
    (shaped ? out.shaped : out.lexed) = Slurp(path);
    if (shaped) out.shaped_records = writer.shaped_records();
  }
  return out;
}

TEST(BinLogShapedTest, PassThroughRecordsSkipTheLexer) {
  const QueryLog log = GeneratorLog(3000);
  BinLogWriter source_writer;
  const std::string source = WriteSqb(log, 4096, &source_writer);
  const Reencoded got = ReencodeBothWays(source);
  EXPECT_EQ(got.shaped, got.lexed);
  ExpectSameRecords(log, ReadSqbBuffer(got.shaped));
  // Each template's first record is lexed; every later one is re-encoded
  // from its shape.
  EXPECT_EQ(got.shaped_records,
            log.size() - source_writer.dictionary_size() - source_writer.verbatim_records());
  EXPECT_TRUE(oracle::CheckBinLogRobustness(source).ok);
}

TEST(BinLogShapedTest, AlignedSpansBesideNonDelimitersFallBack) {
  // `a.5` lexes as `a` then the number `.5`, so the span is one token,
  // but a constant `7` spliced there reads `a7`: one identifier. The
  // writer never maps a slot whose neighbours could join a literal.
  SqbParts parts = SqbParts::Split(
      WriteSqb(StatementLog({"SELECT a.5 FROM t", "SELECT a.6 FROM t", "SELECT a.7 FROM t"}),
               4096));
  parts.ReplaceLastStatement(TemplateRef(0, PackedRaw(".7")), TemplateRef(0, PackedInt(7)));
  const std::string source = parts.Join();
  ASSERT_EQ(ReadSqbBuffer(source).records().back().statement, "SELECT a7 FROM t");
  const Reencoded got = ReencodeBothWays(source);
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 0u);
}

TEST(BinLogShapedTest, SpanCoveringPartOfATokenFallsBack) {
  // The template text is rewritten so its key, slot kinds and bytes
  // between constants still match the records', but its spans no longer
  // sit on its literal tokens: the first covers `'p' AND c = 'q`, the
  // second only the closing quote of `'q AND c = '`.
  const std::string first = "SELECT a FROM t WHERE b = 'p' AND c = 'q'";
  SqbParts parts = SqbParts::Split(
      WriteSqb(StatementLog({first.c_str(), "SELECT a FROM t WHERE b = 'r' AND c = 's'"}), 4096));
  BinLogReader reader;
  ASSERT_TRUE(reader.OpenFromBuffer(parts.Join()).ok());
  std::vector<BinLogReader::DictionaryEntry> entries = reader.dictionary();
  ASSERT_EQ(entries.size(), 1u);
  const uint32_t b = static_cast<uint32_t>(first.find("'p'"));
  const uint32_t c = static_cast<uint32_t>(first.find("'q'"));
  entries[0].text = first.substr(0, c) + "'q AND c = '";
  entries[0].spans = {{b, c + 2 - b}, {static_cast<uint32_t>(entries[0].text.size() - 1), 1}};
  parts.dictionary = EncodeDictionary(entries);
  const std::string source = parts.Join();
  const Reencoded got = ReencodeBothWays(source);
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 0u);
}

TEST(BinLogShapedTest, StringConstantInANumericSlotFallsBack) {
  SqbParts parts = SqbParts::Split(WriteSqb(
      StatementLog({"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 2",
                    "SELECT a FROM t WHERE b = 3"}),
      4096));
  parts.ReplaceLastStatement(TemplateRef(0, PackedInt(3)), TemplateRef(0, PackedRaw("'z'")));
  const std::string source = parts.Join();
  ASSERT_EQ(ReadSqbBuffer(source).records().back().statement, "SELECT a FROM t WHERE b = 'z'");
  const Reencoded got = ReencodeBothWays(source);
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 1u);  // record 1 only
}

TEST(BinLogShapedTest, RawConstantLexingAsTwoTokensFallsBack) {
  SqbParts parts = SqbParts::Split(WriteSqb(
      StatementLog({"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 2",
                    "SELECT a FROM t WHERE b = 3"}),
      4096));
  parts.ReplaceLastStatement(TemplateRef(0, PackedInt(3)), TemplateRef(0, PackedRaw("7 8")));
  const std::string source = parts.Join();
  ASSERT_EQ(ReadSqbBuffer(source).records().back().statement, "SELECT a FROM t WHERE b = 7 8");
  const Reencoded got = ReencodeBothWays(source);
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 1u);  // record 1 only
}

TEST(BinLogShapedTest, KeyFirstSeenWithOtherBytesBetweenConstantsFallsBack) {
  // The output writer first meets the key through a lexed statement
  // spelled with one space; the source template has two. The lexing path
  // stores the source's records verbatim, so the shaped path must too.
  const std::string source = WriteSqb(
      StatementLog({"SELECT  a FROM t WHERE b = 1", "SELECT  a FROM t WHERE b = 2"}), 4096);
  const Reencoded got =
      ReencodeBothWays(source, StatementLog({"SELECT a FROM t WHERE b = 9"}));
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 0u);
  BinLogReader reader;
  ASSERT_TRUE(reader.OpenFromBuffer(got.shaped).ok());
  EXPECT_EQ(reader.dictionary().size(), 1u);
}

TEST(BinLogShapedTest, StaleShapeAfterAnEditFallsBack) {
  const std::string source = WriteSqb(
      StatementLog({"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 2",
                    "SELECT a FROM t WHERE b = 3"}),
      4096);
  const Reencoded got = ReencodeBothWays(source, {}, [](LogRecord& record) {
    if (record.seq == 2) record.statement = "SELECT a FROM t WHERE b = 3 OR b = 4";
  });
  EXPECT_EQ(got.shaped, got.lexed);
  EXPECT_EQ(got.shaped_records, 1u);  // record 1 only
  EXPECT_EQ(ReadSqbBuffer(got.shaped).records().back().statement,
            "SELECT a FROM t WHERE b = 3 OR b = 4");
}

}  // namespace
}  // namespace sqlog::log
