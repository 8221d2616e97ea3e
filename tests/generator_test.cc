#include "log/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "sql/ast.h"
#include "sql/skeleton.h"

namespace sqlog::log {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.target_statements = 8000;
  config.cth_families = 8;
  return config;
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  QueryLog a = GenerateLog(SmallConfig());
  QueryLog b = GenerateLog(SmallConfig());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].statement, b.records()[i].statement);
    EXPECT_EQ(a.records()[i].timestamp_ms, b.records()[i].timestamp_ms);
    EXPECT_EQ(a.records()[i].user, b.records()[i].user);
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentLogs) {
  GeneratorConfig config = SmallConfig();
  QueryLog a = GenerateLog(config);
  config.seed = 999;
  QueryLog b = GenerateLog(config);
  bool any_difference = a.size() != b.size();
  for (size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a.records()[i].statement != b.records()[i].statement;
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, ReachesTargetSizeApproximately) {
  QueryLog log = GenerateLog(SmallConfig());
  EXPECT_GE(log.size(), 8000u);
  EXPECT_LE(log.size(), 10000u);  // quota overshoot is bounded
}

TEST(GeneratorTest, TimeSortedAndRenumbered) {
  QueryLog log = GenerateLog(SmallConfig());
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log.records()[i - 1].timestamp_ms, log.records()[i].timestamp_ms);
    EXPECT_EQ(log.records()[i].seq, i);
  }
}

TEST(GeneratorTest, EveryFamilyIsRepresented) {
  QueryLog log = GenerateLog(SmallConfig());
  std::map<TruthLabel, size_t> counts;
  for (const auto& record : log.records()) ++counts[record.truth];
  for (TruthLabel label :
       {TruthLabel::kOrganic, TruthLabel::kDwStifle, TruthLabel::kDsStifle,
        TruthLabel::kDfStifle, TruthLabel::kCthReal, TruthLabel::kCthFalse,
        TruthLabel::kSws, TruthLabel::kSnc, TruthLabel::kDuplicate, TruthLabel::kNoise}) {
    EXPECT_GT(counts[label], 0u) << TruthLabelName(label);
  }
}

TEST(GeneratorTest, MixSharesRoughlyMatchConfig) {
  GeneratorConfig config = SmallConfig();
  config.target_statements = 30000;
  QueryLog log = GenerateLog(config);
  std::map<TruthLabel, double> share;
  for (const auto& record : log.records()) share[record.truth] += 1.0;
  for (auto& [label, count] : share) count /= static_cast<double>(log.size());

  EXPECT_NEAR(share[TruthLabel::kDwStifle], config.frac_dw_stifle, 0.04);
  EXPECT_NEAR(share[TruthLabel::kSws], config.frac_sws, 0.05);
  EXPECT_NEAR(share[TruthLabel::kDuplicate], config.duplicate_prob, 0.02);
}

TEST(GeneratorTest, DuplicatesFollowTheirOriginalImmediately) {
  QueryLog log = GenerateLog(SmallConfig());
  // For every duplicate record, the same user must have issued the same
  // statement within ~1s before it.
  std::unordered_map<std::string, std::pair<std::string, int64_t>> last_by_user;
  size_t checked = 0;
  for (const auto& record : log.records()) {
    if (record.truth == TruthLabel::kDuplicate) {
      auto it = last_by_user.find(record.user);
      ASSERT_NE(it, last_by_user.end());
      EXPECT_EQ(it->second.first, record.statement);
      EXPECT_LE(record.timestamp_ms - it->second.second, 1000);
      ++checked;
    }
    last_by_user[record.user] = {record.statement, record.timestamp_ms};
  }
  EXPECT_GT(checked, 50u);
}

TEST(GeneratorTest, PerUserTimestampsStrictlyIncrease) {
  QueryLog log = GenerateLog(SmallConfig());
  std::unordered_map<std::string, int64_t> last;
  for (const auto& record : log.records()) {
    auto it = last.find(record.user);
    if (it != last.end()) {
      EXPECT_GT(record.timestamp_ms, it->second) << record.user;
    }
    last[record.user] = record.timestamp_ms;
  }
}

TEST(GeneratorTest, SelectStatementsParse) {
  QueryLog log = GenerateLog(SmallConfig());
  size_t failures = 0;
  size_t select_count = 0;
  for (const auto& record : log.records()) {
    if (record.truth == TruthLabel::kNoise) continue;  // broken on purpose
    if (sql::ClassifyStatement(record.statement) != sql::StatementKind::kSelect) continue;
    ++select_count;
    if (!sql::ParseAndAnalyze(record.statement).ok()) ++failures;
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(select_count, 7000u);
}

TEST(GeneratorTest, NoiseContainsDmlAndBrokenStatements) {
  QueryLog log = GenerateLog(SmallConfig());
  size_t non_select = 0;
  size_t broken_select = 0;
  for (const auto& record : log.records()) {
    if (record.truth != TruthLabel::kNoise) continue;
    if (sql::ClassifyStatement(record.statement) != sql::StatementKind::kSelect) {
      ++non_select;
    } else if (!sql::ParseAndAnalyze(record.statement).ok()) {
      ++broken_select;
    }
  }
  EXPECT_GT(non_select, 0u);
  EXPECT_GT(broken_select, 0u);
}

TEST(GeneratorTest, SwsFamiliesAreSingleUser) {
  QueryLog log = GenerateLog(SmallConfig());
  // Group SWS queries by template (via skeleton) and check 1 user each.
  std::unordered_map<std::string, std::unordered_map<std::string, int>> users_by_template;
  for (const auto& record : log.records()) {
    if (record.truth != TruthLabel::kSws) continue;
    auto facts = sql::ParseAndAnalyze(record.statement);
    ASSERT_TRUE(facts.ok());
    users_by_template[facts->shared->tmpl.ssc][record.user]++;
  }
  // Small logs only exercise a few SWS robots; the invariant is that
  // each robot template maps to exactly one user.
  EXPECT_GE(users_by_template.size(), 2u);
  // sqlog-lint: deterministic-merge(order only feeds independent per-key assertions, never output or hashed state)
  for (const auto& [tmpl, users] : users_by_template) {
    EXPECT_EQ(users.size(), 1u) << tmpl;
  }
}

TEST(GeneratorTest, StifleQueriesHaveSingleEqualityOnKey) {
  QueryLog log = GenerateLog(SmallConfig());
  size_t checked = 0;
  for (const auto& record : log.records()) {
    if (record.truth != TruthLabel::kDwStifle) continue;
    auto facts = sql::ParseAndAnalyze(record.statement);
    ASSERT_TRUE(facts.ok());
    ASSERT_EQ(facts->shared->predicate_count(), 1);
    EXPECT_EQ(facts->shared->predicates[0].op, sql::PredicateOp::kEq);
    EXPECT_EQ(facts->shared->predicates[0].column, "objid");
    if (++checked > 200) break;
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace sqlog::log
