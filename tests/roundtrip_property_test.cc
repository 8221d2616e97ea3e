// Property tests over the whole generated workload: every parseable
// statement must survive parse → canonical print → parse → print as a
// fixpoint, template fingerprints must be stable across reprints, and
// the pipeline must be fully deterministic.

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "fuzz/sql_mutator.h"
#include "log/generator.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/skeleton.h"
#include "util/random.h"

namespace sqlog {
namespace {

log::QueryLog SmallLog(uint64_t seed) {
  log::GeneratorConfig config;
  config.seed = seed;
  config.target_statements = 6000;
  config.cth_families = 8;
  return log::GenerateLog(config);
}

TEST(RoundTripPropertyTest, CanonicalPrintIsAFixpoint) {
  log::QueryLog raw = SmallLog(1);
  sql::PrintOptions opts;
  size_t checked = 0;
  for (const auto& record : raw.records()) {
    auto first = sql::ParseSelect(record.statement);
    if (!first.ok()) continue;
    std::string printed = Print(*first.value(), opts);
    auto second = sql::ParseSelect(printed);
    ASSERT_TRUE(second.ok()) << "reparse failed for: " << printed;
    EXPECT_EQ(Print(*second.value(), opts), printed) << record.statement;
    ++checked;
  }
  EXPECT_GT(checked, 5000u);
}

TEST(RoundTripPropertyTest, TemplatesSurviveReprinting) {
  log::QueryLog raw = SmallLog(2);
  sql::PrintOptions opts;
  size_t checked = 0;
  for (const auto& record : raw.records()) {
    auto facts = sql::ParseAndAnalyze(record.statement);
    if (!facts.ok()) continue;
    std::string printed = Print(*facts->ast, opts);
    auto reparsed = sql::ParseAndAnalyze(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(facts->shared->tmpl.fingerprint, reparsed->shared->tmpl.fingerprint) << printed;
    EXPECT_EQ(facts->shared->tmpl, reparsed->shared->tmpl);
    ++checked;
  }
  EXPECT_GT(checked, 5000u);
}

TEST(RoundTripPropertyTest, PredicateFeaturesSurviveReprinting) {
  log::QueryLog raw = SmallLog(3);
  sql::PrintOptions opts;
  size_t checked = 0;
  for (const auto& record : raw.records()) {
    auto facts = sql::ParseAndAnalyze(record.statement);
    if (!facts.ok()) continue;
    auto reparsed = sql::ParseAndAnalyze(Print(*facts->ast, opts));
    ASSERT_TRUE(reparsed.ok());
    ASSERT_EQ(facts->shared->predicates.size(), reparsed->shared->predicates.size());
    for (size_t i = 0; i < facts->shared->predicates.size(); ++i) {
      EXPECT_EQ(facts->shared->predicates[i].op, reparsed->shared->predicates[i].op);
      EXPECT_EQ(facts->shared->predicates[i].column, reparsed->shared->predicates[i].column);
      EXPECT_TRUE(std::ranges::equal(facts->values(i), reparsed->values(i)));
    }
    ++checked;
  }
  EXPECT_GT(checked, 5000u);
}

TEST(RoundTripPropertyTest, TemplatesAreInvariantUnderSemanticPreservingMutation) {
  // Def. 4's whole point: the template must not care about whitespace,
  // identifier case, or literal values. Jitter every parseable generated
  // statement with the structure-aware mutator and check the skeleton
  // never moves.
  log::QueryLog raw = SmallLog(5);
  Rng rng(0xD1FFu);
  size_t checked = 0;
  for (const auto& record : raw.records()) {
    auto base = sql::ParseAndAnalyze(record.statement);
    if (!base.ok()) continue;
    for (int round = 0; round < 2; ++round) {
      std::string jittered = fuzz::MutatePreservingTemplate(record.statement, rng);
      auto mutated = sql::ParseAndAnalyze(jittered);
      ASSERT_TRUE(mutated.ok()) << record.statement << " → " << jittered;
      EXPECT_EQ(base->shared->tmpl, mutated->shared->tmpl) << record.statement << " → " << jittered;

      std::string cosmetic =
          fuzz::MutatePreservingCanonicalForm(record.statement, rng);
      auto reparsed = sql::ParseSelect(cosmetic);
      ASSERT_TRUE(reparsed.ok()) << record.statement << " → " << cosmetic;
      EXPECT_EQ(Print(*reparsed.value(), sql::PrintOptions{}),
                Print(*base->ast, sql::PrintOptions{}))
          << record.statement << " → " << cosmetic;
    }
    ++checked;
  }
  EXPECT_GT(checked, 5000u);
}

TEST(RoundTripPropertyTest, PipelineIsDeterministic) {
  log::QueryLog raw = SmallLog(4);
  catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::Pipeline pipeline;
  pipeline.SetSchema(&schema);
  core::PipelineResult a = pipeline.Run(raw).value();
  core::PipelineResult b = pipeline.Run(raw).value();

  EXPECT_EQ(a.stats.final_size, b.stats.final_size);
  EXPECT_EQ(a.stats.pattern_count, b.stats.pattern_count);
  EXPECT_EQ(a.antipatterns.instances.size(), b.antipatterns.instances.size());
  ASSERT_EQ(a.clean_log.size(), b.clean_log.size());
  for (size_t i = 0; i < a.clean_log.size(); ++i) {
    EXPECT_EQ(a.clean_log.records()[i].statement, b.clean_log.records()[i].statement);
  }
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].template_ids, b.patterns[i].template_ids);
    EXPECT_EQ(a.patterns[i].frequency, b.patterns[i].frequency);
  }
}

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, PipelineInvariantsHoldAcrossSeeds) {
  log::GeneratorConfig config;
  config.seed = GetParam();
  config.target_statements = 6000;
  config.cth_families = 8;
  log::QueryLog raw = log::GenerateLog(config);

  catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::Pipeline pipeline;
  pipeline.SetSchema(&schema);
  core::PipelineResult result = pipeline.Run(raw).value();

  // Structural invariants that must hold for any workload.
  const auto& stats = result.stats;
  EXPECT_EQ(stats.after_dedup_size + stats.duplicates_removed, stats.original_size);
  EXPECT_EQ(stats.select_count + stats.non_select_count + stats.syntax_error_count,
            stats.after_dedup_size);
  EXPECT_LE(stats.final_size, stats.select_count);
  EXPECT_LE(stats.removal_size, stats.final_size);

  // Every query belongs to at most one claiming instance, and claimed
  // solvable instances partition their queries.
  std::vector<uint32_t> seen_counts(result.antipatterns.instances.size() + 1, 0);
  for (uint32_t id : result.antipatterns.instance_of_query) {
    ASSERT_LE(id, result.antipatterns.instances.size());
    ++seen_counts[id];
  }
  // Clean log parses completely.
  for (const auto& record : result.clean_log.records()) {
    EXPECT_TRUE(sql::ParseAndAnalyze(record.statement).ok()) << record.statement;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace sqlog
