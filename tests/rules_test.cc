#include "core/rules.h"

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "core/pipeline.h"
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

ParsedQuery ParseOne(const std::string& sql) {
  ParsedQuery query;
  auto facts = sql::ParseAndAnalyze(sql);
  EXPECT_TRUE(facts.ok()) << sql;
  query.facts = std::move(facts.value());
  return query;
}

TEST(RulesTest, SelectStarRuleDetects) {
  CustomRule rule = MakeSelectStarRule();
  EXPECT_TRUE(rule.detect(ParseOne("SELECT * FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a, b FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.solvable());
}

TEST(RulesTest, MissingWhereRuleDetects) {
  CustomRule rule = MakeMissingWhereRule();
  EXPECT_TRUE(rule.detect(ParseOne("SELECT a FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT TOP 10 a FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT count(*) FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a, count(*) FROM t GROUP BY a")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT objid FROM fGetNearbyObjEq(1,2,3) n")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT 1")));
}

TEST(RulesTest, SncRuleMatchesBuiltInBehaviour) {
  CustomRule rule = MakeSncRule();
  ParsedQuery bad = ParseOne("SELECT * FROM Bugs WHERE assigned_to = NULL");
  ParsedQuery good = ParseOne("SELECT * FROM Bugs WHERE assigned_to IS NULL");
  EXPECT_TRUE(rule.detect(bad));
  EXPECT_FALSE(rule.detect(good));
  ASSERT_TRUE(rule.solvable());
  auto rewritten = rule.rewrite(bad);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

class RulePipelineTest : public ::testing::Test {
 protected:
  PipelineResult Run(std::vector<CustomRule> rules) {
    log::QueryLog raw;
    raw.Append(Make(1000, "u", "SELECT * FROM photoPrimary WHERE objid = 1"));
    raw.Append(Make(100000000, "u", "SELECT ra FROM photoPrimary"));
    raw.Append(Make(200000000, "u", "SELECT ra, dec FROM photoPrimary WHERE ra > 1"));
    raw.Renumber();
    PipelineOptions options;
    options.miner.min_support = 1;
    options.detector.custom_rules = std::move(rules);
    static catalog::Schema schema = catalog::MakeSkyServerSchema();
    Pipeline pipeline(options);
    pipeline.SetSchema(&schema);
    return pipeline.Run(raw).value();
  }
};

TEST_F(RulePipelineTest, DetectOnlyRuleAnnotatesAndRemoves) {
  PipelineResult result = Run({MakeSelectStarRule(), MakeMissingWhereRule()});
  EXPECT_EQ(result.antipatterns.InstancesOf("custom-rule-0"), 1u);
  EXPECT_EQ(result.antipatterns.InstancesOf("custom-rule-1"), 1u);
  EXPECT_EQ(result.antipatterns.DistinctOf("custom-rule-0"), 1u);
  EXPECT_EQ(result.antipatterns.DistinctOf("custom-rule-1"), 1u);
  // Detect-only hits stay in the clean log but leave the removal log.
  EXPECT_EQ(result.clean_log.size(), 3u);
  EXPECT_EQ(result.removal_log.size(), 1u);
}

TEST_F(RulePipelineTest, DistinctCustomRulesKeepSeparateIdentities) {
  PipelineResult result = Run({MakeSelectStarRule(), MakeMissingWhereRule()});
  std::vector<std::string> labels;
  for (const auto& d : result.antipatterns.distinct) {
    labels.push_back(result.antipatterns.detectors->info(d.detector).display_name);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"select-star", "missing-where"}));
}

TEST_F(RulePipelineTest, EachRuleRendersItsTable5Rows) {
  PipelineResult result = Run({MakeSelectStarRule(), MakeMissingWhereRule()});
  const std::string table = result.stats.ToTable();
  for (const char* name : {"select-star", "missing-where"}) {
    EXPECT_NE(table.find(StrFormat("Count of distinct %s ", name)), std::string::npos)
        << table;
    EXPECT_NE(table.find(StrFormat("Count of queries in all %s ", name)), std::string::npos)
        << table;
  }
  EXPECT_EQ(result.stats.DistinctOf("custom-rule-0"), 1u);
  EXPECT_EQ(result.stats.QueriesOf("custom-rule-1"), 1u);
}

TEST_F(RulePipelineTest, SolvableCustomRuleRewritesInPlace) {
  log::QueryLog raw;
  raw.Append(Make(1000, "u", "SELECT * FROM Bugs WHERE assigned_to = NULL"));
  PipelineOptions options;
  options.miner.min_support = 1;
  // Disable the built-in SNC path by using only the custom rule on a
  // fresh pipeline: the built-in SNC will also fire, but the custom
  // rule's rewrite must win or be identical — verify final text.
  options.detector.custom_rules = {MakeSncRule()};
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  ASSERT_EQ(result.clean_log.size(), 1u);
  EXPECT_EQ(result.clean_log.records()[0].statement,
            "select * from bugs where assigned_to is null");
}

TEST_F(RulePipelineTest, NoRulesMeansNoCustomInstances) {
  PipelineResult result = Run({});
  EXPECT_EQ(result.antipatterns.detectors->size(), DefaultDetectorIds().size());
  EXPECT_EQ(result.antipatterns.InstancesOf("custom-rule-0"), 0u);
}

}  // namespace
}  // namespace sqlog::core
