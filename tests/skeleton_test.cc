#include "sql/skeleton.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace sqlog::sql {
namespace {

QueryFacts MustAnalyze(const std::string& sql) {
  auto facts = ParseAndAnalyze(sql);
  EXPECT_TRUE(facts.ok()) << sql << " → " << facts.status().ToString();
  return facts.ok() ? std::move(facts.value()) : QueryFacts{};
}

/// Predicate `i`'s values as a vector, for whole-list comparisons.
std::vector<std::string> Values(const QueryFacts& facts, size_t i) {
  const std::span<const std::string> values = facts.values(i);
  return std::vector<std::string>(values.begin(), values.end());
}

TEST(SkeletonTest, TemplateTripleOfExample8) {
  QueryFacts facts = MustAnalyze("SELECT a, b FROM T WHERE a = 0 AND b >= 3");
  EXPECT_EQ(facts.shared->tmpl.ssc, "select a, b");
  EXPECT_EQ(facts.shared->tmpl.sfc, "from t");
  EXPECT_EQ(facts.shared->tmpl.swc, "where a = <num> and b >= <num>");
  EXPECT_EQ(facts.shared->tmpl.tail, "");
}

TEST(SkeletonTest, EqualQueriesShareFingerprint) {
  QueryFacts a = MustAnalyze("SELECT a, b FROM T WHERE a = 0 AND b >= 3");
  QueryFacts b = MustAnalyze("select A, B from t where A = 10 and B >= 5");
  EXPECT_EQ(a.shared->tmpl, b.shared->tmpl);
  EXPECT_EQ(a.shared->tmpl.fingerprint, b.shared->tmpl.fingerprint);
}

TEST(SkeletonTest, DifferentTailMakesDifferentTemplate) {
  QueryFacts a = MustAnalyze("SELECT a FROM t WHERE x = 1");
  QueryFacts b = MustAnalyze("SELECT a FROM t WHERE x = 1 ORDER BY a");
  EXPECT_FALSE(a.shared->tmpl == b.shared->tmpl);
}

TEST(SkeletonTest, ConcreteClausesKeepConstants) {
  QueryFacts facts = MustAnalyze("SELECT name FROM Employee WHERE empId = 8");
  EXPECT_EQ(facts.sc, "select name");
  EXPECT_EQ(facts.fc, "from employee");
  EXPECT_EQ(facts.wc, "where empid = 8");
}

TEST(SkeletonTest, SingleEqualityPredicateExtraction) {
  QueryFacts facts = MustAnalyze("SELECT name FROM Employee WHERE empId = 8");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  const Predicate& pred = facts.shared->predicates[0];
  EXPECT_EQ(pred.op, PredicateOp::kEq);
  EXPECT_EQ(pred.column, "empid");
  EXPECT_TRUE(pred.constant_comparison);
  EXPECT_EQ(Values(facts, 0), std::vector<std::string>{"8"});
  EXPECT_TRUE(facts.shared->where_conjunctive);
}

TEST(SkeletonTest, ReversedComparisonIsMirrored) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE 5 < r");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  EXPECT_EQ(facts.shared->predicates[0].op, PredicateOp::kGreater);
  EXPECT_EQ(facts.shared->predicates[0].column, "r");
}

TEST(SkeletonTest, ConjunctionCountsPredicates) {
  QueryFacts facts =
      MustAnalyze("SELECT a FROM t WHERE x = 1 AND y > 2 AND z BETWEEN 3 AND 4");
  EXPECT_EQ(facts.shared->predicate_count(), 3);
  EXPECT_TRUE(facts.shared->where_conjunctive);
}

TEST(SkeletonTest, PredicateValuesAreOneFlatListInPredicateOrder) {
  QueryFacts facts = MustAnalyze(
      "SELECT a FROM t, u WHERE x = 1 AND t.id = u.id AND z IN (3, 4) AND w BETWEEN 5 AND 6");
  ASSERT_EQ(facts.shared->predicate_count(), 4);
  EXPECT_EQ(facts.predicate_values, (std::vector<std::string>{"1", "3", "4", "5", "6"}));
  EXPECT_EQ(Values(facts, 0), std::vector<std::string>{"1"});
  EXPECT_TRUE(Values(facts, 1).empty());
  EXPECT_EQ(facts.shared->predicates[1].value_begin, 1u);
  EXPECT_EQ(Values(facts, 2), (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(Values(facts, 3), (std::vector<std::string>{"5", "6"}));
}

TEST(SkeletonTest, OrMakesNonConjunctive) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE x = 1 OR y = 2");
  EXPECT_EQ(facts.shared->predicate_count(), 2);
  EXPECT_FALSE(facts.shared->where_conjunctive);
}

TEST(SkeletonTest, NotMakesNonConjunctive) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE NOT x = 1");
  EXPECT_FALSE(facts.shared->where_conjunctive);
}

TEST(SkeletonTest, BetweenCapturesBothBounds) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE r BETWEEN 14 AND 17");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  const Predicate& pred = facts.shared->predicates[0];
  EXPECT_EQ(pred.op, PredicateOp::kBetween);
  EXPECT_EQ(Values(facts, 0), (std::vector<std::string>{"14", "17"}));
}

TEST(SkeletonTest, InListCapturesAllValues) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE id IN (8, 1, 5)");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  EXPECT_EQ(facts.shared->predicates[0].op, PredicateOp::kIn);
  EXPECT_EQ(Values(facts, 0), (std::vector<std::string>{"8", "1", "5"}));
}

TEST(SkeletonTest, NullComparisonIsFlagged) {
  QueryFacts eq = MustAnalyze("SELECT * FROM Bugs WHERE assigned_to = NULL");
  ASSERT_EQ(eq.shared->predicate_count(), 1);
  EXPECT_TRUE(eq.shared->predicates[0].compares_to_null_literal);

  QueryFacts neq = MustAnalyze("SELECT * FROM Bugs WHERE assigned_to <> NULL");
  EXPECT_TRUE(neq.shared->predicates[0].compares_to_null_literal);

  QueryFacts is_null = MustAnalyze("SELECT * FROM Bugs WHERE assigned_to IS NULL");
  EXPECT_EQ(is_null.shared->predicates[0].op, PredicateOp::kIsNull);
  EXPECT_FALSE(is_null.shared->predicates[0].compares_to_null_literal);
}

TEST(SkeletonTest, ColumnToColumnComparisonIsNotConstant) {
  QueryFacts facts = MustAnalyze("SELECT a FROM t, u WHERE t.id = u.id");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  EXPECT_FALSE(facts.shared->predicates[0].constant_comparison);
}

TEST(SkeletonTest, VariableComparisonIsConstant) {
  // Log variables stand in for constants (Sec. 4.1.2).
  QueryFacts facts = MustAnalyze("SELECT a FROM t WHERE htmid >= @h1");
  ASSERT_EQ(facts.shared->predicate_count(), 1);
  EXPECT_TRUE(facts.shared->predicates[0].constant_comparison);
}

TEST(SkeletonTest, SelectedColumnsUnqualifiedAndLowercased) {
  QueryFacts facts = MustAnalyze("SELECT E.Name, E.SurName FROM Employees E WHERE E.id = 1");
  EXPECT_EQ(facts.shared->selected_columns, (std::vector<std::string>{"name", "surname"}));
  EXPECT_FALSE(facts.shared->selects_star);
}

TEST(SkeletonTest, AliasWinsAsOutputColumn) {
  QueryFacts facts = MustAnalyze("SELECT u - g AS ug FROM t");
  EXPECT_EQ(facts.shared->selected_columns, (std::vector<std::string>{"ug"}));
}

TEST(SkeletonTest, StarSetsFlag) {
  QueryFacts facts = MustAnalyze("SELECT * FROM t");
  EXPECT_TRUE(facts.shared->selects_star);
  EXPECT_TRUE(facts.shared->selected_columns.empty());
}

TEST(SkeletonTest, TablesCollectedFromJoinsAndSubqueries) {
  QueryFacts facts = MustAnalyze(
      "SELECT * FROM a JOIN b ON a.x = b.x, (SELECT * FROM c) s, fGetNearbyObjEq(1,2,3) n");
  EXPECT_EQ(facts.shared->tables, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(facts.shared->table_functions, (std::vector<std::string>{"fgetnearbyobjeq"}));
}

TEST(SkeletonTest, FunctionCallInSelectNamedByFunction) {
  QueryFacts facts = MustAnalyze("SELECT count(orders) FROM Orders WHERE empId = 12");
  EXPECT_EQ(facts.shared->selected_columns, (std::vector<std::string>{"count"}));
}

// Property-style sweep: a query and its skeleton must agree for any
// constant substituted into the same template.
class SkeletonParamTest : public ::testing::TestWithParam<int> {};

TEST_P(SkeletonParamTest, ConstantsDoNotChangeTemplate) {
  int v = GetParam();
  QueryFacts base = MustAnalyze("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = 1");
  QueryFacts variant = MustAnalyze(
      StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = %d", v));
  EXPECT_EQ(base.shared->tmpl, variant.shared->tmpl);
  EXPECT_EQ(Values(variant, 0), std::vector<std::string>{std::to_string(v)});
}

INSTANTIATE_TEST_SUITE_P(Constants, SkeletonParamTest,
                         ::testing::Values(0, 7, 42, 1000000, -5, 2147483647));

}  // namespace
}  // namespace sqlog::sql
