#ifndef SQLOG_SQL_SKELETON_H_
#define SQLOG_SQL_SKELETON_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/token.h"
#include "util/status.h"

namespace sqlog::sql {

/// Leaf predicate shapes recognized in WHERE clauses.
enum class PredicateOp {
  kEq,
  kNotEq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
  kBetween,
  kIn,
  kLike,
  kIsNull,
  kIsNotNull,
  kOther,  // joins predicates, subqueries, function comparisons, ...
};

/// Returns a stable name for a predicate operator.
const char* PredicateOpName(PredicateOp op);

/// One leaf predicate extracted from a WHERE clause, minus its constant
/// values: everything here is fixed by the statement's template, so it
/// lives in the shared TemplateFacts; the values vary per statement and
/// are read through QueryFacts::values. The Stifle and CTH definitions
/// (Defs. 11 and 15) are phrased over these features: CP is the number
/// of leaf predicates, θ the comparison operator, filCol the filtered
/// column.
struct Predicate {
  PredicateOp op = PredicateOp::kOther;
  std::string qualifier;  // lower-cased column qualifier, may be empty
  std::string column;     // lower-cased filter column, empty when not a column
  /// Where the predicate's constant operands sit in
  /// QueryFacts::predicate_values: `value_count` entries from
  /// `value_begin` (1 for comparisons, 2 for BETWEEN, n for IN lists,
  /// 0 when an operand is not constant). `value_begin` is the number of
  /// values of all earlier predicates.
  uint32_t value_begin = 0;
  uint32_t value_count = 0;
  /// True when the predicate compares a column against literal /
  /// variable constants (not another column or subquery).
  bool constant_comparison = false;
  /// True for `col = NULL` / `col <> NULL` — the SNC antipattern
  /// (Def. 16) triggers on these.
  bool compares_to_null_literal = false;
  /// True when one comparison side applies a function or arithmetic to
  /// exactly one column and the other side is a constant —
  /// `upper(name) = 'X'`, `objid + 1 < 5`. The shape the non-sargable
  /// detector flags. `op` stays kOther and `constant_comparison` stays
  /// false so the Stifle/CTH eligibility rules (which demand plain
  /// column comparisons) are unaffected; `column`/`qualifier` name the
  /// wrapped column.
  bool lhs_computed = false;
  /// The underlying comparison operator of a computed-column predicate
  /// (mirrored when the computed side is on the right).
  PredicateOp computed_op = PredicateOp::kOther;
  /// Lower-cased function name ("upper") or arithmetic operator
  /// spelling ("+", "-", "*", "/", "%") applied to the column.
  std::string computed_fn;
  /// True when both operands are plain column references under `=` — a
  /// join condition such as `n.objid = p.objid`; `column` records the
  /// left-hand column. Its absence over a multi-table FROM is the
  /// implicit-cross-join smell.
  bool column_equijoin = false;

  bool operator==(const Predicate& other) const = default;
};

/// The query template of Definition 4: the skeleton triple (SFC, SWC,
/// SSC) plus the tail (GROUP/ORDER/TOP) that also shapes a template.
struct QueryTemplate {
  std::string ssc;   // skeleton SELECT clause
  std::string sfc;   // skeleton FROM clause
  std::string swc;   // skeleton WHERE clause
  std::string tail;  // skeleton GROUP BY / HAVING / ORDER BY
  uint64_t fingerprint = 0;

  bool operator==(const QueryTemplate& other) const {
    return fingerprint == other.fingerprint && ssc == other.ssc && sfc == other.sfc &&
           swc == other.swc && tail == other.tail;
  }
};

/// The facts of a parsed SELECT that are a function of its normalized
/// key (sql::AppendNormalizedKey): the skeleton template, the predicate
/// shapes, output columns and source tables. Statements with one key
/// have equal TemplateFacts, so the parse cache builds them once per key
/// and every query of that key points at the same immutable object (the
/// cache entry holds it beside its recipes).
struct TemplateFacts {
  QueryTemplate tmpl;

  /// Leaf predicates of the WHERE clause, in tree order.
  std::vector<Predicate> predicates;
  /// True when the WHERE tree is a pure AND-conjunction of leaves (no OR
  /// / NOT above leaf level); several detection rules require this.
  bool where_conjunctive = true;

  /// Lower-cased output column names (from select list; aliases win),
  /// used for the CTH "selected attribute reappears as filter" rule.
  std::vector<std::string> selected_columns;
  bool selects_star = false;

  /// Lower-cased base-table names reachable in FROM (join trees are
  /// flattened; subqueries contribute their own tables).
  std::vector<std::string> tables;
  /// Lower-cased table-valued function names in FROM.
  std::vector<std::string> table_functions;
  /// Count of top-level (comma-separated) FROM items. Explicit JOIN
  /// trees count as one item; implicit cross joins have ≥ 2.
  int from_item_count = 0;

  /// Count of leaf predicates — the paper's CP.
  int predicate_count() const { return static_cast<int>(predicates.size()); }

  bool operator==(const TemplateFacts& other) const = default;
};

/// Everything the pipeline needs to know about one parsed SELECT: the
/// shared template-constant facts plus what varies per statement — the
/// concrete clause texts (SC/FC/WC of Def. 3) and the predicates'
/// constant values.
struct QueryFacts {
  std::shared_ptr<const SelectStatement> ast;
  /// Never null in an analyzed statement. Queries of one normalized key
  /// share the object when the parse cache is on; ParseAndAnalyze, and
  /// the parse with the cache off, give each statement its own.
  std::shared_ptr<const TemplateFacts> shared;

  std::string sc;  // concrete canonical SELECT clause
  std::string fc;  // concrete canonical FROM clause
  std::string wc;  // concrete canonical WHERE clause

  /// Every predicate's constant operands as canonical text, predicate
  /// after predicate (see Predicate::value_begin).
  std::vector<std::string> predicate_values;

  /// Predicate `i`'s constant operands (shared->predicates[i]).
  std::span<const std::string> values(size_t i) const {
    const Predicate& pred = shared->predicates[i];
    return std::span<const std::string>(predicate_values).subspan(pred.value_begin,
                                                                  pred.value_count);
  }
};

/// Computes the skeleton template of a statement.
QueryTemplate MakeTemplate(const SelectStatement& stmt);

/// Full analysis: template, concrete clauses, predicates, columns,
/// tables. Never fails for a parsed statement; the Result carries the
/// analyzed value for API symmetry with ParseSelect.
///
/// When `predicate_value_exprs` is non-null it receives the AST node
/// behind every entry of `QueryFacts::predicate_values`, in order. The
/// parse cache uses this to map predicate values back to literal slots.
QueryFacts Analyze(std::shared_ptr<const SelectStatement> stmt,
                   std::vector<const Expr*>* predicate_value_exprs = nullptr);

/// Parses and analyzes in one step.
Result<QueryFacts> ParseAndAnalyze(const std::string& statement_text);

/// Same, over an already-lexed token stream — callers that lexed the
/// statement to fingerprint it avoid lexing twice on a cache miss.
Result<QueryFacts> ParseAndAnalyzeTokens(
    const TokenStream& tokens,
    std::vector<const Expr*>* predicate_value_exprs = nullptr);

}  // namespace sqlog::sql

#endif  // SQLOG_SQL_SKELETON_H_
