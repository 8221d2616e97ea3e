// Differential tests for the runtime-dispatched byte kernels
// (util/simd.h): every fuzz-corpus entry and a 100k-statement generator
// log run through the lexer, the normalized key, and the CSV line
// splitter once with the scalar twins forced and once per accelerated
// level — token streams, keys, and split lines must be byte-identical.
// The raw kernel primitives (find/lower/class bitmaps) and the lexer's
// ClassIndex skips are additionally swept position-by-position so a
// lane-boundary bug cannot hide behind higher-layer slack.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "log/generator.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "util/byte_class.h"
#include "util/csv.h"
#include "util/simd.h"

#ifndef SQLOG_FUZZ_CORPUS_DIR
#error "SQLOG_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

namespace sqlog {
namespace {

namespace fs = std::filesystem;

std::vector<std::pair<std::string, std::string>> LoadCorpusBlobs() {
  std::vector<std::pair<std::string, std::string>> blobs;  // label, bytes
  const fs::path root(SQLOG_FUZZ_CORPUS_DIR);
  for (const auto& file : fs::recursive_directory_iterator(root)) {
    if (!file.is_regular_file()) continue;
    std::ifstream in(file.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    blobs.emplace_back(file.path().lexically_relative(root).string(), std::move(bytes));
  }
  return blobs;
}

/// Accelerated levels this build/host can actually run (scalar excluded:
/// it is the reference side of every comparison).
std::vector<simd::Level> AcceleratedLevels() {
  std::vector<simd::Level> levels;
  for (simd::Level level : {simd::Level::kSwar, simd::Level::kSse2}) {
    if (level <= simd::BestSupportedLevel()) levels.push_back(level);
  }
  return levels;
}

/// RAII force of one kernel level for a differential leg.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) { simd::ForceLevelForTest(level); }
  ~ScopedLevel() { simd::ResetLevelForTest(); }
};

struct LexOutcome {
  bool ok = false;
  std::string error;
  std::vector<sql::TokenType> types;
  std::vector<std::string> texts;
  std::vector<size_t> offsets;
  std::vector<size_t> ends;
};

LexOutcome LexNow(std::string_view statement) {
  LexOutcome out;
  auto result = sql::Lex(statement);
  out.ok = result.ok();
  if (!out.ok) {
    out.error = result.status().ToString();
    return out;
  }
  const sql::TokenStream& tokens = result.value();
  for (size_t i = 0; i < tokens.size(); ++i) {
    out.types.push_back(tokens[i].type);
    out.texts.emplace_back(tokens[i].text);
    out.offsets.push_back(tokens[i].offset);
    out.ends.push_back(tokens[i].end);
  }
  return out;
}

std::string KeyNow(std::string_view statement) {
  auto result = sql::Lex(statement);
  if (!result.ok()) return "<lex-error>";
  std::string key;
  sql::AppendNormalizedKey(result.value(), &key);
  return key;
}

/// Byte-at-a-time references for ClassIndex::SkipSpace / SkipIdentRun.
size_t SkipSpaceReference(std::string_view text, size_t pos) {
  while (pos < text.size() && IsSpaceByte(text[pos])) ++pos;
  return pos;
}

size_t SkipIdentRunReference(std::string_view text, size_t pos) {
  while (pos < text.size() && IsIdentCharByte(text[pos])) ++pos;
  return pos;
}

std::vector<std::string> SplitNow(std::string_view content, size_t chunk) {
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

/// Position sweep of the raw kernels over one blob: each result must
/// equal the scalar-forced result from the same start index. Dense for
/// small blobs, strided past 4 KiB to bound runtime.
void SweepPrimitives(const std::string& label, const std::string& bytes,
                     simd::Level level) {
  const size_t stride = bytes.size() <= 4096 ? 1 : 97;
  std::string scalar_lower;
  std::string level_lower;
  // Whole-text bitmaps: the scalar-built and level-built words must be
  // identical, and the ClassIndex bit scans must agree with a
  // byte-at-a-time class loop at every swept position (checked inside
  // the loop).
  const size_t bitmap_words = (bytes.size() + 63) / 64;
  std::vector<uint64_t> scalar_space_bits(bitmap_words + 1, 0);
  std::vector<uint64_t> scalar_ident_bits(bitmap_words + 1, 0);
  std::vector<uint64_t> level_space_bits(bitmap_words + 1, 0);
  std::vector<uint64_t> level_ident_bits(bitmap_words + 1, 0);
  simd::ClassIndex level_index;
  {
    ScopedLevel force(simd::Level::kScalar);
    simd::BuildClassBitmaps(bytes, scalar_space_bits.data(),
                            scalar_ident_bits.data());
  }
  {
    ScopedLevel force(level);
    simd::BuildClassBitmaps(bytes, level_space_bits.data(),
                            level_ident_bits.data());
    level_index.Build(bytes);
  }
  EXPECT_EQ(scalar_space_bits, level_space_bits)
      << label << " space bitmap, level " << simd::LevelName(level);
  EXPECT_EQ(scalar_ident_bits, level_ident_bits)
      << label << " ident bitmap, level " << simd::LevelName(level);
  for (size_t i = 0; i <= bytes.size(); i += stride) {
    size_t scalar_nl, scalar_special;
    {
      ScopedLevel force(simd::Level::kScalar);
      scalar_nl = simd::FindByte(bytes, i, '\n');
      scalar_special = simd::FindLineSpecial(bytes, i);
      scalar_lower.clear();
      simd::AppendLowered(std::string_view(bytes).substr(i), &scalar_lower);
    }
    ScopedLevel force(level);
    EXPECT_EQ(scalar_nl, simd::FindByte(bytes, i, '\n'))
        << label << " FindByte@" << i << " level " << simd::LevelName(level);
    EXPECT_EQ(scalar_special, simd::FindLineSpecial(bytes, i))
        << label << " FindLineSpecial@" << i << " level " << simd::LevelName(level);
    EXPECT_EQ(SkipSpaceReference(bytes, i), level_index.SkipSpace(i))
        << label << " ClassIndex::SkipSpace@" << i << " level "
        << simd::LevelName(level);
    EXPECT_EQ(SkipIdentRunReference(bytes, i), level_index.SkipIdentRun(i))
        << label << " ClassIndex::SkipIdentRun@" << i << " level "
        << simd::LevelName(level);
    level_lower.clear();
    simd::AppendLowered(std::string_view(bytes).substr(i), &level_lower);
    EXPECT_EQ(scalar_lower, level_lower)
        << label << " AppendLowered@" << i << " level " << simd::LevelName(level);
  }
}

TEST(SimdDifferentialTest, PrimitivesMatchScalarOnCorpus) {
  const auto blobs = LoadCorpusBlobs();
  ASSERT_FALSE(blobs.empty());
  for (simd::Level level : AcceleratedLevels()) {
    for (const auto& [label, bytes] : blobs) SweepPrimitives(label, bytes, level);
  }
}

TEST(SimdDifferentialTest, PrimitivesMatchScalarAroundLaneBoundaries) {
  // Synthetic worst cases a corpus may miss: runs that start/end at
  // every offset within two 16-byte lanes, with high-bit bytes adjacent
  // (the SWAR masks must not carry across lanes or sign-extend).
  std::vector<std::string> blobs;
  for (size_t pad = 0; pad < 18; ++pad) {
    std::string s(pad, 'x');
    s += "  \t\r\n\v\f  ";
    s += std::string(pad, ' ');
    s += "\x80\xff\x7f";
    s += "ident_run$#123,\"q\"\r\n";
    s += std::string(17 - pad, 'Z');
    blobs.push_back(s);
  }
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  blobs.push_back(all);
  for (simd::Level level : AcceleratedLevels()) {
    for (size_t b = 0; b < blobs.size(); ++b) {
      SweepPrimitives("synthetic-" + std::to_string(b), blobs[b], level);
    }
  }
}

TEST(SimdDifferentialTest, LexAndKeyMatchScalarOnCorpus) {
  const auto blobs = LoadCorpusBlobs();
  ASSERT_FALSE(blobs.empty());
  for (const auto& [label, bytes] : blobs) {
    LexOutcome scalar_lex;
    std::string scalar_key;
    {
      ScopedLevel force(simd::Level::kScalar);
      scalar_lex = LexNow(bytes);
      scalar_key = KeyNow(bytes);
    }
    for (simd::Level level : AcceleratedLevels()) {
      ScopedLevel force(level);
      LexOutcome lex = LexNow(bytes);
      EXPECT_EQ(scalar_lex.ok, lex.ok) << label;
      EXPECT_EQ(scalar_lex.error, lex.error) << label;
      EXPECT_EQ(scalar_lex.types, lex.types) << label;
      EXPECT_EQ(scalar_lex.texts, lex.texts) << label;
      EXPECT_EQ(scalar_lex.offsets, lex.offsets) << label;
      EXPECT_EQ(scalar_lex.ends, lex.ends) << label;
      EXPECT_EQ(scalar_key, KeyNow(bytes)) << label;
    }
  }
}

TEST(SimdDifferentialTest, CsvSplitMatchesScalarOnCorpus) {
  const auto blobs = LoadCorpusBlobs();
  ASSERT_FALSE(blobs.empty());
  for (const auto& [label, bytes] : blobs) {
    std::vector<std::string> scalar_lines;
    {
      ScopedLevel force(simd::Level::kScalar);
      scalar_lines = SplitNow(bytes, 7);
    }
    EXPECT_EQ(scalar_lines, Csv::SplitLogicalLines(bytes)) << label;
    for (simd::Level level : AcceleratedLevels()) {
      ScopedLevel force(level);
      for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
        EXPECT_EQ(scalar_lines, SplitNow(bytes, chunk))
            << label << " chunk " << chunk << " level " << simd::LevelName(level);
      }
    }
  }
}

TEST(SimdDifferentialTest, GeneratorLogMatchesScalarAtEveryLevel) {
  log::GeneratorConfig config;
  config.target_statements = 100000;
  const log::QueryLog log = log::GenerateLog(config);
  ASSERT_GE(log.size(), 100000u);

  // Scalar reference pass over every statement, then one pass per level.
  std::vector<std::string> scalar_keys;
  scalar_keys.reserve(log.size());
  std::string csv;
  {
    ScopedLevel force(simd::Level::kScalar);
    for (const auto& record : log.records()) {
      scalar_keys.push_back(KeyNow(record.statement));
    }
  }
  for (const auto& record : log.records()) {
    csv += Csv::JoinLine({std::to_string(record.seq), record.user, record.statement});
    csv += '\n';
  }
  std::vector<std::string> scalar_lines;
  {
    ScopedLevel force(simd::Level::kScalar);
    scalar_lines = SplitNow(csv, 64 * 1024);
  }

  for (simd::Level level : AcceleratedLevels()) {
    ScopedLevel force(level);
    for (size_t i = 0; i < log.size(); ++i) {
      ASSERT_EQ(scalar_keys[i], KeyNow(log.records()[i].statement))
          << "record " << i << " level " << simd::LevelName(level);
    }
    ASSERT_EQ(scalar_lines, SplitNow(csv, 64 * 1024))
        << "level " << simd::LevelName(level);
  }
}

}  // namespace
}  // namespace sqlog
