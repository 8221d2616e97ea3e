// Golden-file integration test: a fixed-seed generator log pushed
// through Pipeline::Run must reproduce the checked-in statistics
// overview byte for byte — at 1 thread and at 8 threads (the engine
// guarantees byte-identical results at any thread count).
//
// Regenerate after an intentional pipeline change with:
//   SQLOG_REGEN_GOLDEN=1 ./build/tests/pipeline_golden_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/parse_cache.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "log/log_io.h"

#ifndef SQLOG_GOLDEN_DIR
#error "SQLOG_GOLDEN_DIR must point at tests/golden"
#endif

namespace sqlog {
namespace {

constexpr const char* kGoldenPath = SQLOG_GOLDEN_DIR "/pipeline_stats.golden";

log::QueryLog FixedLog() {
  log::GeneratorConfig config;
  config.seed = 20180416;
  config.target_statements = 6000;
  config.human_users = 60;
  config.sws_families = 8;
  config.cth_families = 8;
  return log::GenerateLog(config);
}

/// A pipeline over `options` that checks Def. 11 against `schema`.
core::Pipeline WithSchema(const core::PipelineOptions& options, const catalog::Schema& schema) {
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  return pipeline;
}

core::PipelineResult RunAt(size_t threads, const log::QueryLog& raw,
                           const catalog::Schema& schema, bool parse_cache = true) {
  core::PipelineOptions options;
  options.num_threads = threads;
  options.parse_cache = parse_cache;
  auto result = WithSchema(options, schema).Run(raw);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

std::string ReadGolden() {
  std::ifstream in(kGoldenPath, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PipelineGoldenTest, StatisticsMatchTheGoldenFileAtOneAndEightThreads) {
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  core::PipelineResult serial = RunAt(1, raw, schema);
  const std::string table = serial.stats.ToTable();

  if (std::getenv("SQLOG_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    out << table;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing golden file " << kGoldenPath
                               << " — regenerate with SQLOG_REGEN_GOLDEN=1";
  EXPECT_EQ(table, golden)
      << "pipeline statistics drifted from the golden file; if the change is "
         "intentional, regenerate with SQLOG_REGEN_GOLDEN=1";

  // The parse cache must be output-invisible: with it disabled, and at
  // 8 threads either way, the stats table still matches the golden file
  // and the clean logs agree record for record.
  for (bool parse_cache : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      if (parse_cache && threads == 1) continue;  // the reference run above
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " parse_cache=" + (parse_cache ? "on" : "off"));
      core::PipelineResult other = RunAt(threads, raw, schema, parse_cache);
      EXPECT_EQ(other.stats.ToTable(), golden);

      // The determinism contract goes beyond the stats table: the
      // actual clean logs must agree record for record.
      ASSERT_EQ(other.clean_log.size(), serial.clean_log.size());
      for (size_t i = 0; i < serial.clean_log.size(); ++i) {
        const auto& a = serial.clean_log.records()[i];
        const auto& b = other.clean_log.records()[i];
        ASSERT_EQ(a.statement, b.statement) << "record " << i;
        ASSERT_EQ(a.timestamp_ms, b.timestamp_ms) << "record " << i;
        ASSERT_EQ(a.user, b.user) << "record " << i;
      }
    }
  }
}

TEST(PipelineGoldenTest, ExplicitDefaultDetectorSelectionMatchesTheGoldenFile) {
  // Naming the paper's detectors explicitly must be indistinguishable
  // from the empty (default) selection — the registry redesign may not
  // perturb the default pipeline in any way.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.detector.detector_ids = core::DefaultDetectorIds();
  auto result = WithSchema(options, schema).Run(raw);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(result->stats.ToTable(), golden);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PipelineGoldenTest, StreamingIsByteIdenticalAtAnyBatchSizeAndThreadCount) {
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  // The in-memory reference: its clean/removal logs serialized exactly
  // as the streaming writers serialize them.
  core::PipelineResult reference = RunAt(1, raw, schema);
  const std::string want_table = reference.stats.ToTable();
  const std::string want_clean = log::LogIo::ToCsv(reference.clean_log);
  const std::string want_removal = log::LogIo::ToCsv(reference.removal_log);

  const std::string input_path = ::testing::TempDir() + "/golden_stream_input.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, input_path).ok());

  for (size_t batch_size : {size_t{1}, size_t{4096}, raw.size()}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      for (bool parse_cache : {true, false}) {
        SCOPED_TRACE("batch=" + std::to_string(batch_size) +
                     " threads=" + std::to_string(threads) +
                     " parse_cache=" + (parse_cache ? "on" : "off"));
        const std::string clean_path = ::testing::TempDir() + "/golden_stream_clean.csv";
        const std::string removal_path =
            ::testing::TempDir() + "/golden_stream_removal.csv";
        core::PipelineOptions options;
        options.num_threads = threads;
        options.batch_size = batch_size;
        options.parse_cache = parse_cache;
        auto run = WithSchema(options, schema).RunStreaming(input_path, clean_path, removal_path);
        ASSERT_TRUE(run.ok()) << run.status().ToString();

        EXPECT_EQ(run->stats.ToTable(), want_table);
        EXPECT_EQ(ReadAll(clean_path), want_clean);
        EXPECT_EQ(ReadAll(removal_path), want_removal);
        std::remove(clean_path.c_str());
        std::remove(removal_path.c_str());
      }
    }
  }
  std::remove(input_path.c_str());
}

TEST(PipelineGoldenTest, StreamingAtTheLargestBatchSizeMatchesTheDefault) {
  // The batch vector grows on demand instead of reserving batch_size
  // records up front, so any valid batch size runs — SIZE_MAX is one
  // batch holding the whole log.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  const std::string input_path = ::testing::TempDir() + "/golden_maxbatch_input.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, input_path).ok());

  std::vector<std::string> outputs;
  for (size_t batch_size : {core::PipelineOptions().batch_size, SIZE_MAX}) {
    SCOPED_TRACE("batch=" + std::to_string(batch_size));
    const std::string clean_path = ::testing::TempDir() + "/golden_maxbatch_clean.csv";
    const std::string removal_path = ::testing::TempDir() + "/golden_maxbatch_removal.csv";
    core::PipelineOptions options;
    options.batch_size = batch_size;
    auto run = WithSchema(options, schema).RunStreaming(input_path, clean_path, removal_path);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    outputs.push_back(run->stats.ToTable() + ReadAll(clean_path) + ReadAll(removal_path));
    std::remove(clean_path.c_str());
    std::remove(removal_path.c_str());
  }
  EXPECT_EQ(outputs[1], outputs[0]);
  std::remove(input_path.c_str());
}

TEST(PipelineGoldenTest, StreamingSqbFormatsAreByteIdenticalToTheCsvReference) {
  // Format must be output-invisible exactly like thread count: a `.sqb`
  // input (ingested via dictionary recipes, zero full parses) and `.sqb`
  // outputs (decoded back to CSV) reproduce the CSV reference byte for
  // byte at 1 and 8 threads. The `.sqb` outputs themselves must not
  // depend on the input format either: from a `.sqb` input the writers
  // re-encode pass-through records from the input's template shapes
  // instead of lexing them, and must write the bytes the CSV input's
  // run writes, at the default batch size and at 97.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  core::PipelineResult reference = RunAt(1, raw, schema);
  const std::string want_table = reference.stats.ToTable();
  const std::string want_clean = log::LogIo::ToCsv(reference.clean_log);
  const std::string want_removal = log::LogIo::ToCsv(reference.removal_log);

  const std::string csv_input = ::testing::TempDir() + "/golden_fmt_input.csv";
  const std::string sqb_input = ::testing::TempDir() + "/golden_fmt_input.sqb";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, csv_input).ok());
  ASSERT_TRUE(log::LogIo::WriteFile(raw, sqb_input, log::LogFormat::kSqb,
                                    core::BuildStatementRecipe)
                  .ok());

  const size_t default_batch = core::PipelineOptions{}.batch_size;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    std::string sqb_clean_from_csv;  // the CSV input's `.sqb` outputs
    std::string sqb_removal_from_csv;
    for (const std::string& input : {csv_input, sqb_input}) {
      const bool sqb_input_leg = input == sqb_input;
      for (size_t batch : {default_batch, size_t{97}}) {
        if (batch != default_batch && !sqb_input_leg) continue;
        for (bool sqb_output : {false, true}) {
          SCOPED_TRACE("input=" + input + " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch) +
                       " sqb_output=" + (sqb_output ? "yes" : "no"));
          const char* ext = sqb_output ? ".sqb" : ".csv";
          const std::string clean_path =
              ::testing::TempDir() + "/golden_fmt_clean" + ext;
          const std::string removal_path =
              ::testing::TempDir() + "/golden_fmt_removal" + ext;
          core::PipelineOptions options;
          options.num_threads = threads;
          options.batch_size = batch;
          // Input/output formats resolve from the extensions (kAuto).
          auto run = WithSchema(options, schema).RunStreaming(input, clean_path, removal_path);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          EXPECT_EQ(run->stats.ToTable(), want_table);

          if (sqb_output) {
            auto clean = log::LogIo::ReadFile(clean_path);
            auto removal = log::LogIo::ReadFile(removal_path);
            ASSERT_TRUE(clean.ok()) << clean.status().ToString();
            ASSERT_TRUE(removal.ok()) << removal.status().ToString();
            EXPECT_EQ(log::LogIo::ToCsv(*clean), want_clean);
            EXPECT_EQ(log::LogIo::ToCsv(*removal), want_removal);
            if (sqb_input_leg) {
              EXPECT_TRUE(ReadAll(clean_path) == sqb_clean_from_csv)
                  << "clean .sqb bytes depend on the input format";
              EXPECT_TRUE(ReadAll(removal_path) == sqb_removal_from_csv)
                  << "removal .sqb bytes depend on the input format";
            } else {
              sqb_clean_from_csv = ReadAll(clean_path);
              sqb_removal_from_csv = ReadAll(removal_path);
            }
          } else {
            EXPECT_EQ(ReadAll(clean_path), want_clean);
            EXPECT_EQ(ReadAll(removal_path), want_removal);
          }
          std::remove(clean_path.c_str());
          std::remove(removal_path.c_str());
        }
      }
    }
  }
  std::remove(csv_input.c_str());
  std::remove(sqb_input.c_str());
}

TEST(PipelineGoldenTest, ChainedStreamingRunsMatchTheInMemoryRecleaning) {
  // Sec. 5.5 re-cleaning is a second run over the first run's clean log,
  // in either mode. RunStreaming over the first RunStreaming's clean
  // output — a CSV file, then a `.sqb` file — must write the bytes that
  // Run(Run(raw).clean_log) + LogIo::WriteFile write, with the same
  // Table 5 text.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  const core::Pipeline pipeline = WithSchema(core::PipelineOptions{}, schema);
  auto first = pipeline.Run(raw);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = pipeline.Run(first->clean_log);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_GT(second->stats.solve.instances_solved, 0u) << "nothing left to re-clean";

  const std::string dir = ::testing::TempDir();
  const std::string input_path = dir + "/golden_chain_input.csv";
  const std::string clean_path = dir + "/golden_chain_clean.csv";
  const std::string removal_path = dir + "/golden_chain_removal.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(second->clean_log, clean_path).ok());
  ASSERT_TRUE(log::LogIo::WriteFile(second->removal_log, removal_path).ok());
  const std::string want_clean = ReadAll(clean_path);
  const std::string want_removal = ReadAll(removal_path);
  ASSERT_TRUE(log::LogIo::WriteFile(raw, input_path).ok());

  for (const char* ext : {".csv", ".sqb"}) {
    SCOPED_TRACE(std::string("first run's outputs: ") + ext);
    const std::string first_clean = dir + "/golden_chain_first_clean" + ext;
    const std::string first_removal = dir + "/golden_chain_first_removal" + ext;
    auto once = pipeline.RunStreaming(input_path, first_clean, first_removal);
    ASSERT_TRUE(once.ok()) << once.status().ToString();
    auto twice = pipeline.RunStreaming(first_clean, clean_path, removal_path);
    ASSERT_TRUE(twice.ok()) << twice.status().ToString();
    EXPECT_EQ(twice->stats.ToTable(), second->stats.ToTable());
    EXPECT_EQ(ReadAll(clean_path), want_clean);
    EXPECT_EQ(ReadAll(removal_path), want_removal);
    std::remove(first_clean.c_str());
    std::remove(first_removal.c_str());
  }
  for (const std::string& path : {input_path, clean_path, removal_path}) {
    std::remove(path.c_str());
  }
}

TEST(PipelineGoldenTest, RunSortsAShuffledLogIntoTheSameOutputs) {
  // Run reads its input in (timestamp, seq) order whatever order the
  // records arrive in: a shuffled copy of the log must reproduce the
  // sorted log's pre-clean, clean and removal logs and statistics.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  log::QueryLog shuffled = raw;
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.records().begin(), shuffled.records().end(), rng);
  ASSERT_NE(log::LogIo::ToCsv(shuffled), log::LogIo::ToCsv(raw));

  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::PipelineResult want = RunAt(threads, raw, schema);
    core::PipelineResult got = RunAt(threads, shuffled, schema);
    EXPECT_EQ(got.stats.ToTable(), want.stats.ToTable());
    EXPECT_EQ(log::LogIo::ToCsv(got.pre_clean), log::LogIo::ToCsv(want.pre_clean));
    EXPECT_EQ(log::LogIo::ToCsv(got.clean_log), log::LogIo::ToCsv(want.clean_log));
    EXPECT_EQ(log::LogIo::ToCsv(got.removal_log), log::LogIo::ToCsv(want.removal_log));
  }
}

}  // namespace
}  // namespace sqlog
