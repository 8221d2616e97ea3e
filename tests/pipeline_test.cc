#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "catalog/schema.h"
#include "log/log_io.h"
#include "util/string_util.h"

namespace sqlog::core {
namespace {

log::LogRecord Make(int64_t t, const char* user, const std::string& sql) {
  log::LogRecord record;
  record.timestamp_ms = t;
  record.user = user;
  record.statement = sql;
  return record;
}

/// A compact hand-crafted log exercising every pipeline stage.
log::QueryLog CraftedLog() {
  log::QueryLog raw;
  // A DW run from one user, tightly spaced (no interleaving even when
  // user metadata is stripped).
  for (int i = 0; i < 4; ++i) {
    raw.Append(Make(1000 + i * 200, "10.0.0.1",
                    StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = %d",
                              100 + i)));
  }
  // A duplicate reload 300 ms after the last run member.
  raw.Append(Make(1900, "10.0.0.1",
                  "SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = 103"));
  // A DS pair from another user.
  raw.Append(Make(50000, "10.0.0.2", "SELECT name FROM Employee WHERE empId = 8"));
  raw.Append(Make(51000, "10.0.0.2", "SELECT address, phone FROM Employee WHERE empId = 8"));
  // Noise.
  raw.Append(Make(60000, "10.0.0.3", "INSERT INTO t VALUES (1)"));
  raw.Append(Make(61000, "10.0.0.3", "SELECT broken FROM"));
  // Ordinary queries.
  raw.Append(Make(70000, "10.0.0.4",
                  "SELECT objid, ra, dec FROM photoPrimary WHERE ra > 10 and ra < 20"));
  raw.Append(Make(90000000, "10.0.0.4",
                  "SELECT objid, ra, dec FROM photoPrimary WHERE ra > 20 and ra < 30"));
  raw.Renumber();
  return raw;
}

PipelineResult RunCrafted(PipelineOptions options = {}) {
  static catalog::Schema schema = catalog::MakeSkyServerSchema();
  options.miner.min_support = 1;
  options.detector.cth_min_support = 1;
  Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  Result<PipelineResult> result = pipeline.Run(CraftedLog());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PipelineTest, StatsReflectEveryStage) {
  PipelineResult result = RunCrafted();
  EXPECT_EQ(result.stats.original_size, 11u);
  EXPECT_EQ(result.stats.duplicates_removed, 1u);
  EXPECT_EQ(result.stats.after_dedup_size, 10u);
  EXPECT_EQ(result.stats.non_select_count, 1u);
  EXPECT_EQ(result.stats.syntax_error_count, 1u);
  EXPECT_EQ(result.stats.select_count, 8u);
  EXPECT_EQ(result.stats.DistinctOf("dw-stifle"), 1u);
  EXPECT_EQ(result.stats.QueriesOf("dw-stifle"), 4u);
  EXPECT_EQ(result.stats.DistinctOf("ds-stifle"), 1u);
  EXPECT_EQ(result.stats.QueriesOf("ds-stifle"), 2u);
  // Clean: DW run (4→1) + DS pair (2→1) + 2 ordinary = 4.
  EXPECT_EQ(result.stats.final_size, 4u);
  // Removal: only the 2 ordinary queries remain.
  EXPECT_EQ(result.stats.removal_size, 2u);
}

TEST(PipelineTest, CleanLogContents) {
  PipelineResult result = RunCrafted();
  std::vector<std::string> statements;
  for (const auto& record : result.clean_log.records()) {
    statements.push_back(record.statement);
  }
  ASSERT_EQ(statements.size(), 4u);
  EXPECT_EQ(statements[0],
            "select objid, rowc_g, colc_g from photoprimary "
            "where objid in (100, 101, 102, 103)");
  EXPECT_EQ(statements[1],
            "select name, address, phone from employee where empid = 8");
}

TEST(PipelineTest, StatsTableRenders) {
  PipelineResult result = RunCrafted();
  std::string table = result.stats.ToTable();
  EXPECT_NE(table.find("Size of original query log"), std::string::npos);
  EXPECT_NE(table.find("11"), std::string::npos);
  EXPECT_NE(table.find("Count of distinct DW-Stifle"), std::string::npos);
}

TEST(PipelineTest, WithoutUserMetadataStillFindsStifles) {
  // Sec. 6.8: strip users; runs still line up by time.
  PipelineOptions options;
  options.use_user_metadata = false;
  PipelineResult result = RunCrafted(options);
  EXPECT_GE(result.stats.QueriesOf("dw-stifle"), 4u);
  // All queries collapse onto the anonymous stream.
  EXPECT_EQ(result.parsed.user_streams.size(), 1u);
}

TEST(PipelineTest, MiningCanBeDisabled) {
  PipelineOptions options;
  options.mine_patterns = false;
  PipelineResult result = RunCrafted(options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.pattern_count, 0u);
  // Cleaning still works.
  EXPECT_EQ(result.stats.final_size, 4u);
}

TEST(PipelineTest, PatternFlaggingUsesExactSignature) {
  PipelineResult result = RunCrafted();
  bool found_flagged = false;
  bool found_clean = false;
  for (size_t i = 0; i < result.patterns.size(); ++i) {
    if (result.PatternIsAntipattern(i)) {
      found_flagged = true;
    } else {
      found_clean = true;
    }
  }
  EXPECT_TRUE(found_flagged);
  EXPECT_TRUE(found_clean);
}

TEST(PipelineTest, InputLogIsNotModified) {
  log::QueryLog raw = CraftedLog();
  size_t before = raw.size();
  std::string first = raw.records()[0].statement;
  catalog::Schema schema = catalog::MakeSkyServerSchema();
  Pipeline pipeline;
  pipeline.SetSchema(&schema);
  (void)pipeline.Run(raw);
  EXPECT_EQ(raw.size(), before);
  EXPECT_EQ(raw.records()[0].statement, first);
}

TEST(PipelineTest, EmptyLog) {
  Pipeline pipeline;
  PipelineResult result = pipeline.Run(log::QueryLog{}).value();
  EXPECT_EQ(result.stats.original_size, 0u);
  EXPECT_EQ(result.stats.final_size, 0u);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(PipelineTest, SecondRunOverTheCleanLogReachesFixpoint) {
  // Sec. 5.5 re-cleaning: a DS session whose merged outputs line up into
  // a fresh DW run; a second run over the clean log absorbs it.
  log::QueryLog raw;
  int64_t t = 0;
  for (int obj = 0; obj < 3; ++obj) {
    raw.Append(Make(t += 1000, "u",
                    StrFormat("SELECT rowc_r, colc_r FROM photoPrimary WHERE objid = %d",
                              500 + obj)));
    raw.Append(Make(t += 1000, "u",
                    StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = %d",
                              500 + obj)));
  }
  static catalog::Schema schema = catalog::MakeSkyServerSchema();
  PipelineOptions options;
  options.miner.min_support = 1;
  Pipeline pipeline(options);
  pipeline.SetSchema(&schema);

  PipelineResult one_pass = pipeline.Run(raw).value();
  EXPECT_EQ(one_pass.stats.final_size, 3u);  // three merged DS statements

  PipelineResult two_passes = pipeline.Run(one_pass.clean_log).value();
  // The three merged statements share SELECT/FROM and differ in WHERE —
  // a DW run the second run merges into one IN query.
  ASSERT_EQ(two_passes.stats.final_size, 1u);
  EXPECT_NE(two_passes.clean_log.records()[0].statement.find("in ("), std::string::npos);

  // A third run has nothing left to solve.
  PipelineResult three_passes = pipeline.Run(two_passes.clean_log).value();
  EXPECT_EQ(three_passes.stats.solve.instances_solved, 0u);
  EXPECT_EQ(log::LogIo::ToCsv(three_passes.clean_log), log::LogIo::ToCsv(two_passes.clean_log));
}

TEST(PipelineTest, WithoutSchemaKeyAxiomIsSkipped) {
  // No schema ⇒ non-key equality filters become Stifle-eligible.
  log::QueryLog raw;
  raw.Append(Make(0, "u", "SELECT a FROM sometable WHERE somecol = 1"));
  raw.Append(Make(1000, "u", "SELECT a FROM sometable WHERE somecol = 2"));
  PipelineOptions options;
  options.miner.min_support = 1;
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  EXPECT_EQ(result.stats.QueriesOf("dw-stifle"), 2u);
}

TEST(PipelineTest, ParseFailuresBecomeCountedDiagnostics) {
  PipelineResult result = RunCrafted();
  // CraftedLog carries exactly one broken statement.
  EXPECT_EQ(result.stats.syntax_error_count, 1u);
  ASSERT_EQ(result.stats.parse_diagnostics.size(), 1u);
  const ParseDiagnostic& diagnostic = result.stats.parse_diagnostics[0];
  EXPECT_EQ(result.pre_clean.records()[diagnostic.record_index].statement,
            "SELECT broken FROM");
  EXPECT_FALSE(diagnostic.message.empty());
}

TEST(PipelineTest, DiagnosticCapBoundsSamplesNotCounts) {
  log::QueryLog raw;
  for (int i = 0; i < 8; ++i) {
    raw.Append(Make(1000 + i * 100000, "u", StrFormat("SELECT broken%d FROM", i)));
  }
  raw.Renumber();
  PipelineOptions options;
  options.max_parse_diagnostics = 3;
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  EXPECT_EQ(result.stats.syntax_error_count, 8u);
  ASSERT_EQ(result.stats.parse_diagnostics.size(), 3u);
  // Samples are the *first* failures in record order.
  EXPECT_EQ(result.stats.parse_diagnostics[0].record_index, 0u);
  EXPECT_EQ(result.stats.parse_diagnostics[2].record_index, 2u);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PipelineTest, StreamingRefusesOutputsThatAliasTheInputOrEachOther) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/pipeline_alias_input.csv";
  const std::string clean = dir + "/pipeline_alias_clean.csv";
  const std::string removal = dir + "/pipeline_alias_removal.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(CraftedLog(), input).ok());
  const std::string before = ReadAll(input);
  ASSERT_FALSE(before.empty());
  Pipeline pipeline;

  // The input under its own name and under another one, then the two
  // outputs onto one not-yet-existing path; each error names the alias.
  const std::string other_name = dir + "/./pipeline_alias_input.csv";
  struct Case {
    std::string clean_path, removal_path, named;
  };
  for (const Case& c : {Case{input, removal, input}, Case{clean, other_name, other_name},
                        Case{clean, clean, clean}}) {
    SCOPED_TRACE(c.clean_path + " + " + c.removal_path);
    auto run = pipeline.RunStreaming(input, c.clean_path, c.removal_path);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find(c.named), std::string::npos)
        << run.status().ToString();
    EXPECT_EQ(ReadAll(input), before) << "the input must be left untouched";
    EXPECT_FALSE(std::ifstream(clean).good()) << "no writer may have opened";
    EXPECT_FALSE(std::ifstream(removal).good()) << "no writer may have opened";
  }
  std::remove(input.c_str());
}

TEST(PipelineTest, RunAndRunStreamingRejectTheSameInvalidOptions) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/pipeline_invalid_input.csv";
  const std::string clean = dir + "/pipeline_invalid_clean.csv";
  const std::string removal = dir + "/pipeline_invalid_removal.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(CraftedLog(), input).ok());
  struct Case {
    const char* named;  // the option the error message names
    std::function<void(PipelineOptions&)> invalidate;
  };
  const Case cases[] = {
      {"threshold_ms", [](PipelineOptions& o) { o.dedup.threshold_ms = -5; }},
      {"max_length", [](PipelineOptions& o) { o.miner.max_length = 0; }},
      {"frequency_fraction", [](PipelineOptions& o) { o.sws.frequency_fraction = 1.5; }},
      {"custom rules", [](PipelineOptions& o) { o.detector.custom_rules.emplace_back(); }},
      {"no-such-detector",
       [](PipelineOptions& o) { o.detector.detector_ids = {"no-such-detector"}; }},
      {"batch_size", [](PipelineOptions& o) { o.batch_size = 0; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.named);
    PipelineOptions options;
    c.invalidate(options);
    Pipeline pipeline(options);
    Result<PipelineResult> run = pipeline.Run(CraftedLog());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find(c.named), std::string::npos)
        << run.status().ToString();
    Result<StreamingRunResult> streamed = pipeline.RunStreaming(input, clean, removal);
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().ToString(), run.status().ToString());
    EXPECT_FALSE(std::ifstream(clean).good()) << "no writer may have opened";
  }
  std::remove(input.c_str());
}

}  // namespace
}  // namespace sqlog::core
