// End-to-end integration tests: synthetic workload → full pipeline →
// cross-stage invariants, plus solver-vs-engine result equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "analysis/clustering.h"
#include "catalog/schema.h"
#include "core/pipeline.h"
#include "core/solver.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "log/generator.h"
#include "util/string_util.h"

namespace sqlog {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    log::GeneratorConfig config;
    config.target_statements = 20000;
    config.cth_families = 12;  // scaled to the small log
    raw_ = new log::QueryLog(log::GenerateLog(config));
    schema_ = new catalog::Schema(catalog::MakeSkyServerSchema());
    core::Pipeline pipeline;
    pipeline.SetSchema(schema_);
    result_ = new core::PipelineResult(pipeline.Run(*raw_).value());
  }

  static void TearDownTestSuite() {
    delete result_;
    delete schema_;
    delete raw_;
    result_ = nullptr;
    schema_ = nullptr;
    raw_ = nullptr;
  }

  static log::QueryLog* raw_;
  static catalog::Schema* schema_;
  static core::PipelineResult* result_;
};

log::QueryLog* IntegrationTest::raw_ = nullptr;
catalog::Schema* IntegrationTest::schema_ = nullptr;
core::PipelineResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, StageSizesAreConsistent) {
  const auto& stats = result_->stats;
  EXPECT_EQ(stats.original_size, raw_->size());
  EXPECT_EQ(stats.after_dedup_size + stats.duplicates_removed, stats.original_size);
  EXPECT_EQ(stats.select_count + stats.non_select_count + stats.syntax_error_count,
            stats.after_dedup_size);
  EXPECT_LT(stats.final_size, stats.after_dedup_size);
  EXPECT_LE(stats.removal_size, stats.final_size);
}

TEST_F(IntegrationTest, DuplicateShareMatchesGeneratorConfig) {
  double share = static_cast<double>(result_->stats.duplicates_removed) /
                 static_cast<double>(result_->stats.original_size);
  EXPECT_GT(share, 0.02);
  EXPECT_LT(share, 0.07);
}

TEST_F(IntegrationTest, AllStifleClassesAreFound) {
  EXPECT_GT(result_->stats.DistinctOf("dw-stifle"), 0u);
  EXPECT_GT(result_->stats.DistinctOf("ds-stifle"), 0u);
  EXPECT_GT(result_->stats.DistinctOf("df-stifle"), 0u);
  EXPECT_GT(result_->stats.DistinctOf("cth"), 0u);
  EXPECT_GT(result_->stats.DistinctOf("snc"), 0u);
}

TEST_F(IntegrationTest, StifleDetectionMatchesGroundTruthLabels) {
  // Every query of every detected DW instance must carry the DW label —
  // or the CTH-real label, since program-driven treasure-hunt follow-ups
  // are themselves DW runs (paper Table 2 double-labels them).
  size_t checked = 0;
  for (const auto& instance : result_->antipatterns.instances) {
    if (result_->antipatterns.detectors->info(instance.detector).id != "dw-stifle") continue;
    for (size_t q : instance.query_indices) {
      size_t record = result_->parsed.queries[q].record_index;
      log::TruthLabel truth = result_->pre_clean.records()[record].truth;
      EXPECT_TRUE(truth == log::TruthLabel::kDwStifle ||
                  truth == log::TruthLabel::kCthReal)
          << result_->pre_clean.records()[record].statement;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(IntegrationTest, MostGroundTruthStifleQueriesAreDetected) {
  // Recall: count labelled Stifle queries claimed by some instance.
  size_t labelled = 0;
  size_t claimed = 0;
  for (size_t q = 0; q < result_->parsed.queries.size(); ++q) {
    size_t record = result_->parsed.queries[q].record_index;
    log::TruthLabel truth = result_->pre_clean.records()[record].truth;
    if (truth != log::TruthLabel::kDwStifle && truth != log::TruthLabel::kDsStifle &&
        truth != log::TruthLabel::kDfStifle) {
      continue;
    }
    ++labelled;
    if (result_->antipatterns.instance_of_query[q] != 0) ++claimed;
  }
  ASSERT_GT(labelled, 0u);
  EXPECT_GT(static_cast<double>(claimed) / static_cast<double>(labelled), 0.9);
}

TEST_F(IntegrationTest, RecleaningConverges) {
  // Sec. 5.5: after one cleaning step there can be further solvable
  // antipatterns (merged DS pairs line up into fresh DW runs); the share
  // must be small and a second pass must drive it to near zero.
  core::Pipeline pipeline;
  pipeline.SetSchema(schema_);
  core::PipelineResult second = pipeline.Run(result_->clean_log).value();
  uint64_t residual1 = second.stats.QueriesOf("dw-stifle") +
                       second.stats.QueriesOf("ds-stifle") +
                       second.stats.QueriesOf("df-stifle");
  double share1 = static_cast<double>(residual1) /
                  static_cast<double>(result_->clean_log.size());
  EXPECT_LT(share1, 0.06) << "first-pass residual too high";

  core::PipelineResult third = pipeline.Run(second.clean_log).value();
  uint64_t residual2 =
      third.stats.QueriesOf("dw-stifle") + third.stats.QueriesOf("ds-stifle") +
      third.stats.QueriesOf("df-stifle");
  double share2 = static_cast<double>(residual2) /
                  static_cast<double>(second.clean_log.size());
  EXPECT_LT(share2, 0.01) << "second-pass residual too high";
  EXPECT_LT(share2, share1 + 1e-12);
}

TEST_F(IntegrationTest, CleanLogStatementsAllParse) {
  size_t parse_failures = 0;
  for (const auto& record : result_->clean_log.records()) {
    if (sql::ClassifyStatement(record.statement) != sql::StatementKind::kSelect) continue;
    if (!sql::ParseAndAnalyze(record.statement).ok()) ++parse_failures;
  }
  EXPECT_EQ(parse_failures, 0u);
}

TEST_F(IntegrationTest, RemovalLogContainsNoAntipatternQueries) {
  std::unordered_set<std::string> antipattern_statements;
  for (const auto& instance : result_->antipatterns.instances) {
    if (!result_->antipatterns.detectors->Solvable(instance)) continue;
    for (size_t q : instance.query_indices) {
      size_t record = result_->parsed.queries[q].record_index;
      antipattern_statements.insert(result_->pre_clean.records()[record].statement);
    }
  }
  for (const auto& record : result_->removal_log.records()) {
    EXPECT_EQ(antipattern_statements.count(record.statement), 0u) << record.statement;
  }
}

TEST_F(IntegrationTest, TopPatternsAfterCleaningAreNotAntipatterns) {
  // Re-run the pipeline on the clean log: the top patterns should be
  // clean (the paper: all top-40 patterns are meaningful after cleaning).
  core::Pipeline pipeline;
  pipeline.SetSchema(schema_);
  core::PipelineResult second = pipeline.Run(result_->clean_log).value();
  size_t top = std::min<size_t>(10, second.patterns.size());
  for (size_t i = 0; i < top; ++i) {
    EXPECT_FALSE(second.PatternIsAntipattern(i, /*solvable_only=*/true))
        << "top pattern " << i;
  }
}

TEST_F(IntegrationTest, RewrittenStifleReturnsSameDataAsOriginals) {
  // Build a small database, execute a detected DW instance's originals
  // and its rewrite, and compare row sets.
  engine::Database db;
  ASSERT_TRUE(engine::PopulateSkyServerSample(db, 500).ok());
  engine::Executor executor(&db);
  auto objids = engine::PhotoObjIds(db);
  ASSERT_GE(objids.size(), 3u);

  std::vector<std::string> originals;
  for (size_t i = 0; i < 3; ++i) {
    originals.push_back(StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = %lld",
                                  static_cast<long long>(objids[i * 5])));
  }
  std::vector<core::ParsedQuery> parsed(originals.size());
  std::vector<const core::ParsedQuery*> members;
  for (size_t i = 0; i < originals.size(); ++i) {
    auto facts = sql::ParseAndAnalyze(originals[i]);
    ASSERT_TRUE(facts.ok());
    parsed[i].facts = std::move(facts.value());
    members.push_back(&parsed[i]);
  }
  auto rewritten = core::RewriteDwStifle(members);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  std::unordered_map<std::string, std::string> original_rows;  // objid → row
  for (size_t i = 0; i < originals.size(); ++i) {
    auto result = executor.ExecuteSql(originals[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->row_count(), 1u);
    std::string row;
    for (const auto& cell : result->rows[0]) row += cell.ToString() + "|";
    original_rows[std::to_string(objids[i * 5])] = row;
  }

  auto merged = executor.ExecuteSql(rewritten.value());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->row_count(), originals.size());
  ASSERT_EQ(merged->column_names.front(), "objid");  // exposed filter column
  for (const auto& row : merged->rows) {
    std::string objid = row[0].ToString();
    std::string rest;
    for (size_t c = 1; c < row.size(); ++c) rest += row[c].ToString() + "|";
    ASSERT_TRUE(original_rows.count(objid)) << objid;
    EXPECT_EQ(original_rows[objid], rest);
  }
}

TEST_F(IntegrationTest, CleaningReducesClusterCount) {
  auto spaces_of = [](const log::QueryLog& log, size_t limit) {
    std::vector<analysis::DataSpace> spaces;
    for (const auto& record : log.records()) {
      if (spaces.size() >= limit) break;
      auto facts = sql::ParseAndAnalyze(record.statement);
      if (!facts.ok()) continue;
      spaces.push_back(analysis::ExtractDataSpace(facts.value()));
    }
    return spaces;
  };
  analysis::ClusteringOptions options;
  options.threshold = 0.9;
  auto raw_result = analysis::ClusterDataSpaces(spaces_of(result_->pre_clean, 5000), options);
  auto removal_result =
      analysis::ClusterDataSpaces(spaces_of(result_->removal_log, 5000), options);
  EXPECT_GT(raw_result.cluster_count(), 0u);
  EXPECT_GT(removal_result.cluster_count(), 0u);
}

}  // namespace
}  // namespace sqlog
