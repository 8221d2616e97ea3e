// Detector-plugin registry tests: metadata validation, set resolution,
// the SQLCheck-derived catalog additions measured against generator
// ground truth (precision/recall >= 0.95 per detector), rewrite rules,
// and streaming/in-memory equivalence with the expanded set.

#include "core/detector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "sql/skeleton.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sqlog {
namespace {

using core::DetectorOptions;
using core::DetectorRegistry;
using core::DetectorSet;

std::vector<std::string> ExpandedIds() {
  std::vector<std::string> ids = core::DefaultDetectorIds();
  ids.insert(ids.end(), {"select-star", "null-fear", "spaghetti-join", "non-sargable"});
  return ids;
}

// --- registry metadata ------------------------------------------------------

TEST(DetectorRegistryTest, GlobalRegistryCarriesBuiltinsAndTheirMetadata) {
  DetectorRegistry& registry = DetectorRegistry::Global();
  for (const std::string& id : ExpandedIds()) {
    EXPECT_NE(registry.Find(id), nullptr) << id;
  }

  auto dw = registry.Find("dw-stifle");
  ASSERT_NE(dw, nullptr);
  EXPECT_EQ(dw->info().display_name, "DW-Stifle");
  EXPECT_EQ(dw->info().scope, core::DetectorScope::kSequence);
  EXPECT_EQ(dw->info().scan_group, "stifle");
  EXPECT_TRUE(dw->info().solvable);

  auto cth = registry.Find("cth");
  ASSERT_NE(cth, nullptr);
  EXPECT_EQ(cth->info().display_name, "candidate CTH");
  EXPECT_FALSE(cth->info().solvable);
  EXPECT_TRUE(cth->info().min_support_filtered);

  auto star = registry.Find("select-star");
  ASSERT_NE(star, nullptr);
  EXPECT_EQ(star->info().display_name, "Implicit Columns");
  EXPECT_EQ(star->info().scope, core::DetectorScope::kPerQuery);
  EXPECT_FALSE(star->info().solvable);

  ASSERT_NE(registry.Find("null-fear"), nullptr);
  EXPECT_TRUE(registry.Find("null-fear")->info().solvable);
  ASSERT_NE(registry.Find("non-sargable"), nullptr);
  EXPECT_TRUE(registry.Find("non-sargable")->info().solvable);
  ASSERT_NE(registry.Find("spaghetti-join"), nullptr);
  EXPECT_FALSE(registry.Find("spaghetti-join")->info().solvable);
}

/// Minimal detector for registration-contract tests.
class StubDetector : public core::Detector {
 public:
  explicit StubDetector(core::DetectorInfo info) : info_(std::move(info)) {}
  const core::DetectorInfo& info() const override { return info_; }

 private:
  core::DetectorInfo info_;
};

TEST(DetectorRegistryTest, RegistrationEnforcesTheMetadataContract) {
  DetectorRegistry registry;

  core::DetectorInfo no_id;
  no_id.display_name = "Nameless";
  EXPECT_FALSE(registry.Register(std::make_shared<StubDetector>(no_id)).ok());

  core::DetectorInfo no_name;
  no_name.id = "anonymous";
  EXPECT_FALSE(registry.Register(std::make_shared<StubDetector>(no_name)).ok());

  core::DetectorInfo good;
  good.id = "stub";
  good.display_name = "Stub";
  EXPECT_TRUE(registry.Register(std::make_shared<StubDetector>(good)).ok());
  EXPECT_NE(registry.Find("stub"), nullptr);

  // Ids are unique: a second registration under the same id fails.
  EXPECT_FALSE(registry.Register(std::make_shared<StubDetector>(good)).ok());
}

TEST(DetectorSetTest, EmptySelectionResolvesToThePaperDefaults) {
  DetectorOptions options;
  auto set = DetectorSet::Resolve(options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const auto& ids = core::DefaultDetectorIds();
  ASSERT_EQ(set.value()->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(set.value()->info(i).id, ids[i]);
    EXPECT_EQ(set.value()->IndexOf(ids[i]), static_cast<int>(i));
  }
}

TEST(DetectorSetTest, ResolveRejectsUnknownAndDuplicateIds) {
  DetectorOptions options;
  options.detector_ids = {"no-such-detector"};
  EXPECT_FALSE(DetectorSet::Resolve(options).ok());

  options.detector_ids = {"snc", "snc"};
  EXPECT_FALSE(DetectorSet::Resolve(options).ok());
}

TEST(DetectorSetTest, ResolveRejectsCustomRules) {
  // A custom rule is a registered Detector selected by id; the empty
  // CustomRule entries that still compile are refused with a pointer to
  // the registry.
  DetectorOptions options;
  options.detector_ids = {"snc"};
  options.custom_rules.emplace_back();
  auto set = DetectorSet::Resolve(options);
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(set.status().message().find("custom rules"), std::string::npos)
      << set.status().ToString();
  EXPECT_NE(set.status().message().find("DetectorRegistry::Register"), std::string::npos)
      << set.status().ToString();
}

// --- precision/recall against generator ground truth ------------------------

/// Workload mix for the catalog-expansion families: the four new
/// detectors' families are cranked up and the two confounders are
/// zeroed (the SNC family emits `SELECT * FROM Bugs ...`, the CTH
/// probes emit `SELECT *` over a TVF — both would read as
/// implicit-columns hits with foreign labels).
log::GeneratorConfig ExpansionConfig() {
  log::GeneratorConfig config;
  config.seed = 20260809;
  config.target_statements = 6000;
  config.human_users = 40;
  config.sws_families = 4;
  config.cth_families = 4;
  config.frac_cth = 0.0;
  config.frac_snc = 0.0;
  config.frac_select_star = 0.15;
  config.frac_null_fear = 0.15;
  config.frac_spaghetti_join = 0.15;
  config.frac_non_sargable = 0.15;
  return config;
}

class CatalogExpansionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new log::QueryLog(log::GenerateLog(ExpansionConfig()));
    schema_ = new catalog::Schema(catalog::MakeSkyServerSchema());
    core::PipelineOptions options;
    options.detector.detector_ids = ExpandedIds();
    core::Pipeline pipeline(options);
    pipeline.SetSchema(schema_);
    auto result = pipeline.Run(*raw_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    result_ = new core::PipelineResult(std::move(result.value()));
  }

  static void TearDownTestSuite() {
    delete result_;
    delete schema_;
    delete raw_;
    result_ = nullptr;
    schema_ = nullptr;
    raw_ = nullptr;
  }

  /// Precision/recall of one detector against one truth label, over the
  /// parsed (post-dedup) queries.
  void CheckPrecisionRecall(const std::string& detector_id, log::TruthLabel label) {
    int index = result_->antipatterns.detectors->IndexOf(detector_id);
    ASSERT_GE(index, 0) << detector_id;

    std::unordered_set<size_t> flagged;
    for (const auto& instance : result_->antipatterns.instances) {
      if (instance.detector != static_cast<uint32_t>(index)) continue;
      flagged.insert(instance.query_indices.begin(), instance.query_indices.end());
    }
    ASSERT_GT(flagged.size(), 100u) << detector_id << ": sample too small";

    size_t true_positives = 0;
    size_t labelled = 0;
    for (size_t q = 0; q < result_->parsed.queries.size(); ++q) {
      size_t record = result_->parsed.queries[q].record_index;
      bool is_labelled = result_->pre_clean.records()[record].truth == label;
      labelled += is_labelled;
      true_positives += is_labelled && flagged.count(q) > 0;
    }
    ASSERT_GT(labelled, 0u);

    double precision =
        static_cast<double>(true_positives) / static_cast<double>(flagged.size());
    double recall = static_cast<double>(true_positives) / static_cast<double>(labelled);
    EXPECT_GE(precision, 0.95) << detector_id;
    EXPECT_GE(recall, 0.95) << detector_id;
  }

  static log::QueryLog* raw_;
  static catalog::Schema* schema_;
  static core::PipelineResult* result_;
};

log::QueryLog* CatalogExpansionTest::raw_ = nullptr;
catalog::Schema* CatalogExpansionTest::schema_ = nullptr;
core::PipelineResult* CatalogExpansionTest::result_ = nullptr;

TEST_F(CatalogExpansionTest, SelectStarPrecisionRecall) {
  CheckPrecisionRecall("select-star", log::TruthLabel::kSelectStar);
}

TEST_F(CatalogExpansionTest, NullFearPrecisionRecall) {
  CheckPrecisionRecall("null-fear", log::TruthLabel::kNullFear);
}

TEST_F(CatalogExpansionTest, SpaghettiJoinPrecisionRecall) {
  CheckPrecisionRecall("spaghetti-join", log::TruthLabel::kSpaghettiJoin);
}

TEST_F(CatalogExpansionTest, NonSargablePrecisionRecall) {
  CheckPrecisionRecall("non-sargable", log::TruthLabel::kNonSargable);
}

TEST_F(CatalogExpansionTest, StatisticsGrowPerDetectorRows) {
  // Every detector of the run's set surfaces as one overview row pair,
  // in set order — the paper's five and the additions alike.
  const core::DetectorSet& set = *result_->antipatterns.detectors;
  ASSERT_EQ(result_->stats.detectors.size(), set.size());
  for (size_t d = 0; d < set.size(); ++d) {
    EXPECT_EQ(result_->stats.detectors[d].id, set.info(d).id);
  }
  const std::string table = result_->stats.ToTable();
  for (const char* name :
       {"Implicit Columns", "Fear of the Unknown", "Implicit Cross Join",
        "Non-Sargable Filter"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST_F(CatalogExpansionTest, SolvableAdditionsAreSolvedCleanly) {
  // null-fear and non-sargable ship rewrites: every one of their
  // instances must be solved, with zero rewrite failures overall.
  EXPECT_EQ(result_->stats.solve.rewrite_failures, 0u);
  uint64_t solvable_hits = 0;
  for (const auto& instance : result_->antipatterns.instances) {
    solvable_hits += result_->antipatterns.detectors->Solvable(instance);
  }
  EXPECT_GT(solvable_hits, 0u);
}

// --- rewrite rules -----------------------------------------------------------

log::QueryLog OneUserLog(const std::vector<std::string>& statements) {
  log::QueryLog log;
  for (size_t i = 0; i < statements.size(); ++i) {
    log::LogRecord record;
    record.seq = i;
    record.timestamp_ms = 1041379200000LL + static_cast<int64_t>(i) * 5000;
    record.user = "10.1.2.3";
    record.session = "10.1.2.3#0";
    record.statement = statements[i];
    log.Append(std::move(record));
  }
  return log;
}

core::PipelineResult RunWith(const std::vector<std::string>& detector_ids,
                             const log::QueryLog& raw, const catalog::Schema* schema) {
  core::PipelineOptions options;
  options.detector.detector_ids = detector_ids;
  options.mine_patterns = false;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(schema);
  auto result = pipeline.Run(raw);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

TEST(DetectorRewriteTest, NullFearRewriteAddsAnIsNullGuard) {
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  auto result = RunWith(
      {"null-fear"},
      OneUserLog({"SELECT bugId, status FROM Bugs WHERE assigned_to <> 7"}), &schema);

  ASSERT_EQ(result.antipatterns.instances.size(), 1u);
  EXPECT_EQ(result.stats.solve.rewrite_failures, 0u);
  EXPECT_EQ(result.stats.solve.queries_rewritten_in_place, 1u);
  ASSERT_EQ(result.clean_log.size(), 1u);
  const std::string clean = ToLower(result.clean_log.records()[0].statement);
  EXPECT_NE(clean.find("assigned_to is null"), std::string::npos) << clean;
  EXPECT_NE(clean.find(" or "), std::string::npos) << clean;
  EXPECT_TRUE(sql::ParseAndAnalyze(result.clean_log.records()[0].statement).ok());
}

TEST(DetectorRewriteTest, NonSargableRewriteFoldsTheConstantAcross) {
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  auto result = RunWith(
      {"non-sargable"},
      OneUserLog({"SELECT bugId, status FROM Bugs WHERE bugId + 7 > 102"}), &schema);

  ASSERT_EQ(result.antipatterns.instances.size(), 1u);
  EXPECT_EQ(result.stats.solve.rewrite_failures, 0u);
  ASSERT_EQ(result.clean_log.size(), 1u);
  auto facts = sql::ParseAndAnalyze(result.clean_log.records()[0].statement);
  ASSERT_TRUE(facts.ok()) << result.clean_log.records()[0].statement;
  ASSERT_EQ(facts->predicate_count(), 1);
  EXPECT_FALSE(facts->predicates[0].lhs_computed);
  EXPECT_EQ(facts->predicates[0].column, "bugid");
  EXPECT_NE(result.clean_log.records()[0].statement.find("95"), std::string::npos)
      << result.clean_log.records()[0].statement;
}

TEST(DetectorRewriteTest, DetectOnlyAdditionsKeepTheQueryVerbatim) {
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  const std::string star = "SELECT * FROM specObjAll WHERE z > 0.5 and zErr < 0.01";
  const std::string cross =
      "SELECT p.objID, s.z FROM photoPrimary p, specObjAll s WHERE s.z > 0.5";
  auto result =
      RunWith({"select-star", "spaghetti-join"}, OneUserLog({star, cross}), &schema);

  ASSERT_EQ(result.antipatterns.instances.size(), 2u);
  EXPECT_EQ(result.stats.solve.instances_unsolvable, 2u);
  ASSERT_EQ(result.clean_log.size(), 2u);
  EXPECT_EQ(result.clean_log.records()[0].statement, star);
  EXPECT_EQ(result.clean_log.records()[1].statement, cross);
  // The removal log drops members of *solvable* instances only;
  // detect-only hits are annotations, not removals.
  EXPECT_EQ(result.removal_log.size(), 0u);
}

TEST(DetectorRewriteTest, SchemaAwareDetectorsStayQuietWithoutASchema) {
  auto result = RunWith(
      {"null-fear", "non-sargable"},
      OneUserLog({"SELECT bugId, status FROM Bugs WHERE assigned_to <> 7",
                  "SELECT bugId, status FROM Bugs WHERE bugId + 7 > 102"}),
      nullptr);
  EXPECT_TRUE(result.antipatterns.instances.empty());
}

// --- streaming equivalence with the expanded set -----------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// No parsed query carries an AST: the parser drops each one in its
/// parse shard as soon as the cache entry's recipes were built from it.
void ExpectNoAsts(const core::ParsedLog& parsed) {
  for (const core::ParsedQuery& query : parsed.queries) {
    ASSERT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

TEST(CatalogExpansionStreamingTest, StreamingMatchesInMemoryWithTheExpandedSet) {
  log::GeneratorConfig config = ExpansionConfig();
  config.target_statements = 2500;
  const log::QueryLog raw = log::GenerateLog(config);
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  core::PipelineOptions options;
  options.detector.detector_ids = ExpandedIds();
  core::Pipeline reference_pipeline(options);
  reference_pipeline.SetSchema(&schema);
  auto reference = reference_pipeline.Run(raw);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectNoAsts(reference->parsed);
  // With the cache off every query is a full parse, serial or sharded.
  core::ParseCacheOptions cache_off;
  cache_off.enabled = false;
  util::ThreadPool pool(3);
  for (util::ThreadPool* parse_pool : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    core::TemplateStore store;
    ExpectNoAsts(core::ParseLog(reference->pre_clean, store, parse_pool, 0, cache_off));
  }

  const std::string input_path = ::testing::TempDir() + "/expanded_stream_input.csv";
  const std::string clean_path = ::testing::TempDir() + "/expanded_stream_clean.csv";
  const std::string removal_path = ::testing::TempDir() + "/expanded_stream_removal.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, input_path).ok());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    options.batch_size = 512;
    core::Pipeline pipeline(options);
    pipeline.SetSchema(&schema);
    auto run = pipeline.RunStreaming(input_path, clean_path, removal_path);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectNoAsts(run->parsed);

    EXPECT_EQ(run->stats.ToTable(), reference->stats.ToTable());
    EXPECT_EQ(ReadAll(clean_path), log::LogIo::ToCsv(reference->clean_log));
    EXPECT_EQ(ReadAll(removal_path), log::LogIo::ToCsv(reference->removal_log));
    std::remove(clean_path.c_str());
    std::remove(removal_path.c_str());
  }
  std::remove(input_path.c_str());
}

}  // namespace
}  // namespace sqlog
