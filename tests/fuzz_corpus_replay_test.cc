// Replays every checked-in fuzz corpus entry (fuzz/corpus/**) through
// the differential oracles — a plain ctest runner, no libFuzzer needed.
// Each file under fuzz/corpus/<harness>/ is one input: regression
// entries are named regression-*; the rest are seeds. Entries under
// solver/ hold a text seed for the solver-vs-engine equivalence oracle
// instead of raw SQL; entries under binlog/ hold `.sqb` container bytes
// (valid and deliberately corrupted) for the binlog robustness oracle;
// entries under csv/ hold CSV log bytes for the differential CSV reader
// oracle.
//
// Run just this suite with:  ctest -L check-fuzz-corpus

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "oracles.h"

#ifndef SQLOG_FUZZ_CORPUS_DIR
#error "SQLOG_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

namespace sqlog {
namespace {

namespace fs = std::filesystem;

struct CorpusEntry {
  std::string harness;  // immediate subdirectory: lexer, parser, ...
  fs::path path;
  std::string bytes;
};

std::vector<CorpusEntry> LoadCorpus() {
  std::vector<CorpusEntry> entries;
  const fs::path root(SQLOG_FUZZ_CORPUS_DIR);
  for (const auto& dir : fs::directory_iterator(root)) {
    if (!dir.is_directory()) continue;
    for (const auto& file : fs::recursive_directory_iterator(dir.path())) {
      if (!file.is_regular_file()) continue;
      std::ifstream in(file.path(), std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      entries.push_back({dir.path().filename().string(), file.path(), std::move(bytes)});
    }
  }
  return entries;
}

TEST(FuzzCorpusReplayTest, CorpusCoversEveryHarness) {
  std::map<std::string, size_t> per_harness;
  for (const auto& entry : LoadCorpus()) per_harness[entry.harness]++;
  for (const char* harness :
       {"lexer", "parser", "printer", "skeleton", "dedup", "solver", "binlog", "csv"}) {
    EXPECT_GT(per_harness[harness], 0u) << "no corpus entries for " << harness;
  }
}

TEST(FuzzCorpusReplayTest, EveryEntryPassesItsOracles) {
  const auto corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty()) << "corpus directory is empty: " << SQLOG_FUZZ_CORPUS_DIR;

  size_t replayed = 0;
  for (const auto& entry : corpus) {
    const uint64_t seed = oracle::SeedFromBytes(entry.bytes);
    oracle::OracleResult result;
    if (entry.harness == "solver") {
      result = oracle::CheckSolverEngineEquivalence(seed);
    } else if (entry.harness == "binlog") {
      // Binary `.sqb` container bytes, not SQL text: the robustness
      // oracle (structured rejection + deterministic decode) applies.
      result = oracle::CheckBinLogRobustness(entry.bytes);
    } else if (entry.harness == "csv") {
      // CSV log bytes: every LogReader read size must decode them as the
      // reference decoder does.
      result = oracle::CheckCsvReader(entry.bytes);
    } else {
      result = oracle::RunFrontEndOracles(entry.bytes, seed);
    }
    EXPECT_TRUE(result.ok) << entry.path << ": " << result.message;
    ++replayed;
  }
  // Keep the floor in sync with the corpus — shrinking it is a red flag.
  EXPECT_GE(replayed, 30u);
}

}  // namespace
}  // namespace sqlog
