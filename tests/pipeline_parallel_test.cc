// Serial-vs-parallel equivalence: the parallel engine must produce
// byte-identical results to the serial path for every thread count —
// sharding keys (record ranges, user hash classes, user-id ranges) and
// merge orders are deterministic, never wall-clock dependent.

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"

namespace sqlog {
namespace {

core::PipelineResult RunWithThreads(const log::QueryLog& raw,
                                    const catalog::Schema* schema,
                                    size_t num_threads, bool use_user_metadata = true) {
  core::PipelineOptions options;
  options.num_threads = num_threads;
  options.use_user_metadata = use_user_metadata;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(schema);
  auto result = pipeline.Run(raw);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A run and the Sec. 5.5 re-cleaning run over its clean log.
struct TwoRuns {
  core::PipelineResult first;
  core::PipelineResult second;
};

TwoRuns RunTwiceWithThreads(const log::QueryLog& raw, const catalog::Schema* schema,
                            size_t num_threads) {
  TwoRuns runs;
  runs.first = RunWithThreads(raw, schema, num_threads);
  runs.second = RunWithThreads(runs.first.clean_log, schema, num_threads);
  return runs;
}

void ExpectLogsIdentical(const log::QueryLog& a, const log::QueryLog& b,
                         const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.records()[i];
    const auto& rb = b.records()[i];
    ASSERT_EQ(ra.statement, rb.statement) << label << " record " << i;
    ASSERT_EQ(ra.user, rb.user) << label << " record " << i;
    ASSERT_EQ(ra.timestamp_ms, rb.timestamp_ms) << label << " record " << i;
  }
}

void ExpectResultsIdentical(const core::PipelineResult& serial,
                            const core::PipelineResult& parallel) {
  // Logs at every stage.
  ExpectLogsIdentical(serial.pre_clean, parallel.pre_clean, "pre_clean");
  ExpectLogsIdentical(serial.clean_log, parallel.clean_log, "clean_log");
  ExpectLogsIdentical(serial.removal_log, parallel.removal_log, "removal_log");

  // Templates: ids, skeletons, and per-template statistics.
  ASSERT_EQ(serial.templates.size(), parallel.templates.size());
  for (uint64_t id = 0; id < serial.templates.size(); ++id) {
    const auto& ta = serial.templates.Get(id);
    const auto& tb = parallel.templates.Get(id);
    ASSERT_EQ(ta.facts->tmpl, tb.facts->tmpl) << "template " << id;
    ASSERT_EQ(ta.first_query, tb.first_query) << "template " << id;
    ASSERT_EQ(ta.frequency, tb.frequency) << "template " << id;
    ASSERT_EQ(ta.users, tb.users) << "template " << id;
  }

  // Parsed queries keep identical template/user assignments.
  ASSERT_EQ(serial.parsed.queries.size(), parallel.parsed.queries.size());
  for (size_t i = 0; i < serial.parsed.queries.size(); ++i) {
    ASSERT_EQ(serial.parsed.queries[i].record_index,
              parallel.parsed.queries[i].record_index) << "query " << i;
    ASSERT_EQ(serial.parsed.queries[i].template_id,
              parallel.parsed.queries[i].template_id) << "query " << i;
    ASSERT_EQ(serial.parsed.queries[i].user_id,
              parallel.parsed.queries[i].user_id) << "query " << i;
  }
  ASSERT_EQ(serial.parsed.user_streams, parallel.parsed.user_streams);

  // Mined patterns, in final sorted order.
  ASSERT_EQ(serial.patterns.size(), parallel.patterns.size());
  for (size_t i = 0; i < serial.patterns.size(); ++i) {
    ASSERT_EQ(serial.patterns[i].template_ids, parallel.patterns[i].template_ids)
        << "pattern " << i;
    ASSERT_EQ(serial.patterns[i].frequency, parallel.patterns[i].frequency)
        << "pattern " << i;
    ASSERT_EQ(serial.patterns[i].users, parallel.patterns[i].users) << "pattern " << i;
  }

  // Antipattern instances in emission order.
  ASSERT_EQ(serial.antipatterns.instances.size(), parallel.antipatterns.instances.size());
  for (size_t i = 0; i < serial.antipatterns.instances.size(); ++i) {
    const auto& ia = serial.antipatterns.instances[i];
    const auto& ib = parallel.antipatterns.instances[i];
    ASSERT_EQ(ia.detector, ib.detector) << "instance " << i;
    ASSERT_EQ(ia.query_indices, ib.query_indices) << "instance " << i;
  }
  ASSERT_EQ(serial.antipatterns.instance_of_query, parallel.antipatterns.instance_of_query);
  ASSERT_EQ(serial.antipatterns.distinct.size(), parallel.antipatterns.distinct.size());

  // Headline statistics.
  const auto& sa = serial.stats;
  const auto& sb = parallel.stats;
  EXPECT_EQ(sa.original_size, sb.original_size);
  EXPECT_EQ(sa.duplicates_removed, sb.duplicates_removed);
  EXPECT_EQ(sa.after_dedup_size, sb.after_dedup_size);
  EXPECT_EQ(sa.select_count, sb.select_count);
  EXPECT_EQ(sa.non_select_count, sb.non_select_count);
  EXPECT_EQ(sa.syntax_error_count, sb.syntax_error_count);
  EXPECT_EQ(sa.pattern_count, sb.pattern_count);
  EXPECT_EQ(sa.max_pattern_frequency, sb.max_pattern_frequency);
  EXPECT_EQ(sa.DistinctOf("dw-stifle"), sb.DistinctOf("dw-stifle"));
  EXPECT_EQ(sa.QueriesOf("dw-stifle"), sb.QueriesOf("dw-stifle"));
  EXPECT_EQ(sa.DistinctOf("ds-stifle"), sb.DistinctOf("ds-stifle"));
  EXPECT_EQ(sa.QueriesOf("ds-stifle"), sb.QueriesOf("ds-stifle"));
  EXPECT_EQ(sa.DistinctOf("df-stifle"), sb.DistinctOf("df-stifle"));
  EXPECT_EQ(sa.QueriesOf("df-stifle"), sb.QueriesOf("df-stifle"));
  EXPECT_EQ(sa.DistinctOf("cth"), sb.DistinctOf("cth"));
  EXPECT_EQ(sa.QueriesOf("cth"), sb.QueriesOf("cth"));
  EXPECT_EQ(sa.DistinctOf("snc"), sb.DistinctOf("snc"));
  EXPECT_EQ(sa.QueriesOf("snc"), sb.QueriesOf("snc"));
  EXPECT_EQ(sa.final_size, sb.final_size);
  EXPECT_EQ(sa.removal_size, sb.removal_size);

  // Parse diagnostics (samples are taken in record order, so they are
  // identical too, not merely equinumerous).
  ASSERT_EQ(sa.parse_diagnostics.size(), sb.parse_diagnostics.size());
  for (size_t i = 0; i < sa.parse_diagnostics.size(); ++i) {
    EXPECT_EQ(sa.parse_diagnostics[i].record_index,
              sb.parse_diagnostics[i].record_index);
    EXPECT_EQ(sa.parse_diagnostics[i].message, sb.parse_diagnostics[i].message);
  }

  // SWS coverage.
  ASSERT_EQ(serial.sws.patterns.size(), parallel.sws.patterns.size());
  for (size_t i = 0; i < serial.sws.patterns.size(); ++i) {
    EXPECT_EQ(serial.sws.patterns[i].pattern_index,
              parallel.sws.patterns[i].pattern_index);
  }
  EXPECT_EQ(serial.sws.covered_queries, parallel.sws.covered_queries);
  EXPECT_EQ(serial.sws.coverage, parallel.sws.coverage);
}

void ExpectRunsIdentical(const TwoRuns& serial, const TwoRuns& parallel) {
  {
    SCOPED_TRACE("first run");
    ExpectResultsIdentical(serial.first, parallel.first);
  }
  SCOPED_TRACE("re-cleaning run");
  ExpectResultsIdentical(serial.second, parallel.second);
}

class PipelineParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    log::GeneratorConfig config;
    config.seed = 99;
    config.target_statements = 12000;
    config.cth_families = 10;
    raw_ = new log::QueryLog(log::GenerateLog(config));
    schema_ = new catalog::Schema(catalog::MakeSkyServerSchema());
    serial_ = new TwoRuns(RunTwiceWithThreads(*raw_, schema_, 1));
  }

  static void TearDownTestSuite() {
    delete serial_;
    delete schema_;
    delete raw_;
    serial_ = nullptr;
    schema_ = nullptr;
    raw_ = nullptr;
  }

  static log::QueryLog* raw_;
  static catalog::Schema* schema_;
  static TwoRuns* serial_;
};

log::QueryLog* PipelineParallelTest::raw_ = nullptr;
catalog::Schema* PipelineParallelTest::schema_ = nullptr;
TwoRuns* PipelineParallelTest::serial_ = nullptr;

TEST_F(PipelineParallelTest, TwoThreadsMatchSerial) {
  TwoRuns parallel = RunTwiceWithThreads(*raw_, schema_, 2);
  ExpectRunsIdentical(*serial_, parallel);
}

TEST_F(PipelineParallelTest, EightThreadsMatchSerial) {
  TwoRuns parallel = RunTwiceWithThreads(*raw_, schema_, 8);
  ExpectRunsIdentical(*serial_, parallel);
}

TEST_F(PipelineParallelTest, HardwareWidthMatchesSerial) {
  TwoRuns parallel = RunTwiceWithThreads(*raw_, schema_, 0);
  ExpectRunsIdentical(*serial_, parallel);
}

TEST_F(PipelineParallelTest, ReducedInputModeAlsoMatches) {
  // Sec. 6.8 mode: all records collapse onto the anonymous user — the
  // worst case for user-sharded stages (one giant stream).
  core::PipelineResult serial = RunWithThreads(*raw_, schema_, 1, /*use_user_metadata=*/false);
  core::PipelineResult parallel = RunWithThreads(*raw_, schema_, 4, /*use_user_metadata=*/false);
  ExpectResultsIdentical(serial, parallel);
}

}  // namespace
}  // namespace sqlog
