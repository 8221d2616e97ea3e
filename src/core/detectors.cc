#include <cassert>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/detector.h"
#include "core/solver.h"
#include "sql/ast.h"
#include "sql/printer.h"
#include "util/string_util.h"

// All Detector subclasses live in this TU so registration and
// implementation cannot drift apart (sqlog-lint R6 enforces this).

namespace sqlog::core {

namespace {

namespace sql = ::sqlog::sql;

std::string PrintCanonical(const sql::SelectStatement& stmt) {
  sql::PrintOptions opts;
  opts.canonical = true;
  return Print(stmt, opts);
}

// ---------------------------------------------------------------------------
// The paper's detectors (Sec. 4.2), registered as built-in plugins. Their
// hooks replicate the pre-registry SegmentScanner logic exactly: the
// three Stifles share the "stifle" scan group, so the driver tries them
// in registration order at every position with first-match-wins — the
// pair conditions of Defs. 12-14 are mutually exclusive, making this
// equivalent to the original coupled if-else classification.
// ---------------------------------------------------------------------------

/// The three Stifle classes (Defs. 12-14).
enum class StifleKind { kDw, kDs, kDf };

/// DW/DS/DF-Stifle (Defs. 12-14), parameterized by class.
class StifleDetector final : public Detector {
 public:
  explicit StifleDetector(StifleKind kind) : kind_(kind) {
    switch (kind) {
      case StifleKind::kDw:
        info_.id = "dw-stifle";
        info_.display_name = "DW-Stifle";
        info_.description = "same SELECT/FROM repeated with different WHERE constants";
        break;
      case StifleKind::kDs:
        info_.id = "ds-stifle";
        info_.display_name = "DS-Stifle";
        info_.description = "same FROM/WHERE repeated with different SELECT lists";
        break;
      case StifleKind::kDf:
        info_.id = "df-stifle";
        info_.display_name = "DF-Stifle";
        info_.description = "same WHERE repeated against different tables";
        break;
    }
    info_.scope = DetectorScope::kSequence;
    info_.solvable = true;
    info_.scan_group = "stifle";
  }

  const DetectorInfo& info() const override { return info_; }

  size_t ScanAt(const SegmentView& segment, size_t pos, const DetectorContext& ctx,
                AntipatternInstance* instance) const override {
    if (pos + 1 >= segment.size()) return 0;
    const ParsedQuery& first = segment.at(pos);
    if (!StifleEligible(first, ctx.schema, ctx.options.require_key_attribute)) return 0;
    const ParsedQuery& second = segment.at(pos + 1);
    if (!StifleEligible(second, ctx.schema, ctx.options.require_key_attribute)) return 0;

    const sql::QueryFacts& f1 = first.facts;
    const sql::QueryFacts& f2 = second.facts;
    bool matches = false;
    switch (kind_) {
      case StifleKind::kDw:
        matches = f1.sc == f2.sc && f1.fc == f2.fc &&
                  f1.shared->tmpl.swc == f2.shared->tmpl.swc && f1.wc != f2.wc;
        break;
      case StifleKind::kDs:
        matches =
            f1.fc == f2.fc && f1.wc == f2.wc && f1.shared->tmpl.ssc != f2.shared->tmpl.ssc;
        break;
      case StifleKind::kDf:
        matches = f1.wc == f2.wc && f1.fc != f2.fc;
        break;
    }
    if (!matches) return 0;

    instance->query_indices = {segment.query_index(pos), segment.query_index(pos + 1)};
    std::unordered_set<std::string> seen_ssc = {f1.shared->tmpl.ssc, f2.shared->tmpl.ssc};
    std::unordered_set<std::string> seen_fc = {f1.fc, f2.fc};
    std::unordered_set<std::string> seen_wc = {f1.wc, f2.wc};

    size_t j = pos + 2;
    while (j < segment.size()) {
      const ParsedQuery& next = segment.at(j);
      if (!StifleEligible(next, ctx.schema, ctx.options.require_key_attribute)) break;
      const sql::QueryFacts& fn = next.facts;
      bool extends = false;
      switch (kind_) {
        case StifleKind::kDw:
          extends = fn.sc == f1.sc && fn.fc == f1.fc &&
                    fn.shared->tmpl.swc == f1.shared->tmpl.swc &&
                    seen_wc.insert(fn.wc).second;
          break;
        case StifleKind::kDs:
          extends =
              fn.fc == f1.fc && fn.wc == f1.wc && seen_ssc.insert(fn.shared->tmpl.ssc).second;
          break;
        case StifleKind::kDf:
          extends = fn.wc == f1.wc && seen_fc.insert(fn.fc).second;
          break;
      }
      if (!extends) break;
      instance->query_indices.push_back(segment.query_index(j));
      ++j;
    }
    return instance->query_indices.size();
  }

  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const override {
    (void)instance;
    switch (kind_) {
      case StifleKind::kDw: return RewriteDwStifle(members);
      case StifleKind::kDs: return RewriteDsStifle(members);
      default: return RewriteDfStifle(members);
    }
  }

 private:
  StifleKind kind_;
  DetectorInfo info_;
};

/// CTH candidate chains (Def. 15). Detect-only; distinct candidates
/// below cth_min_support are dropped by the driver.
class CthDetector final : public Detector {
 public:
  CthDetector() {
    info_.id = "cth";
    // The paper's Table 5 reports CTH as candidates (Sec. 5.5: detected,
    // never rewritten), so the row labels read "candidate CTH".
    info_.display_name = "candidate CTH";
    info_.description = "dependent follow-up chain re-filtering on exposed attributes";
    info_.scope = DetectorScope::kSequence;
    info_.solvable = false;
    info_.min_support_filtered = true;
  }

  const DetectorInfo& info() const override { return info_; }

  size_t ScanAt(const SegmentView& segment, size_t pos, const DetectorContext& ctx,
                AntipatternInstance* instance) const override {
    (void)ctx;
    if (pos + 1 >= segment.size()) return 0;
    const ParsedQuery& head = segment.at(pos);
    instance->query_indices = {segment.query_index(pos)};
    bool linked = false;
    size_t j = pos + 1;
    while (j < segment.size()) {
      const ParsedQuery& followup = segment.at(j);
      if (followup.template_id == head.template_id) break;  // Def. 15: SQ1 ≠ SQ2
      if (!FollowupEligible(followup)) break;
      linked = linked || Linked(head, followup);
      instance->query_indices.push_back(segment.query_index(j));
      ++j;
    }
    if (instance->query_indices.size() < 2 || !linked) {
      instance->query_indices.clear();
      return 0;
    }
    return instance->query_indices.size();
  }

 private:
  /// A query at position ≥ 2 of a candidate: exactly one equality
  /// predicate against a constant (Def. 15).
  static bool FollowupEligible(const ParsedQuery& query) {
    const sql::TemplateFacts& facts = *query.facts.shared;
    if (!facts.where_conjunctive) return false;
    if (facts.predicate_count() != 1) return false;
    const sql::Predicate& pred = facts.predicates[0];
    return pred.op == sql::PredicateOp::kEq && pred.constant_comparison &&
           !pred.compares_to_null_literal;
  }

  /// The "information flows forward" heuristic: the follow-up filters on
  /// an attribute the head query exposed (or the head exposed everything).
  static bool Linked(const ParsedQuery& head, const ParsedQuery& followup) {
    if (head.facts.shared->selects_star) return true;
    const std::string& col = followup.facts.shared->predicates[0].column;
    if (col.empty()) return false;
    for (const auto& selected : head.facts.shared->selected_columns) {
      if (selected == col) return true;
    }
    return false;
  }

  DetectorInfo info_;
};

/// SNC (Def. 16): `= NULL` / `<> NULL` comparisons.
class SncDetector final : public Detector {
 public:
  SncDetector() {
    info_.id = "snc";
    info_.display_name = "SNC";
    info_.description = "searching nullable columns with = NULL / <> NULL";
    info_.solvable = true;
  }

  const DetectorInfo& info() const override { return info_; }

  bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                  AntipatternInstance* instance) const override {
    (void)ctx;
    (void)instance;
    for (const auto& pred : query.facts.shared->predicates) {
      if (pred.compares_to_null_literal) return true;
    }
    return false;
  }

  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const override {
    (void)instance;
    return RewriteSnc(*members[0]);
  }

 private:
  DetectorInfo info_;
};

// ---------------------------------------------------------------------------
// SQLCheck-derived additions (PAPERS.md): query-level antipatterns from
// Karwin's catalog, detectable over the same QueryFacts stream.
// ---------------------------------------------------------------------------

/// Implicit columns: `SELECT *` hides schema coupling and over-fetches.
/// Detect-only — trimming the list needs knowledge of consumer needs.
class SelectStarDetector final : public Detector {
 public:
  SelectStarDetector() {
    info_.id = "select-star";
    info_.display_name = "Implicit Columns";
    info_.description = "SELECT * over-fetches and couples clients to the schema";
  }

  const DetectorInfo& info() const override { return info_; }

  bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                  AntipatternInstance* instance) const override {
    (void)ctx;
    (void)instance;
    return query.facts.shared->selects_star;
  }

 private:
  DetectorInfo info_;
};

/// Fear of the unknown: `col <> constant` on a nullable column silently
/// drops NULL rows. Solvable: each offending comparison gains an
/// `OR col IS NULL` guard.
class NullFearDetector final : public Detector {
 public:
  NullFearDetector() {
    info_.id = "null-fear";
    info_.display_name = "Fear of the Unknown";
    info_.description = "<> filters on nullable columns silently drop NULL rows";
    info_.solvable = true;
  }

  const DetectorInfo& info() const override { return info_; }

  bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                  AntipatternInstance* instance) const override {
    if (ctx.schema == nullptr) return false;  // schema-aware detector
    bool hit = false;
    for (const auto& pred : query.facts.shared->predicates) {
      if (pred.op != sql::PredicateOp::kNotEq) continue;
      if (!pred.constant_comparison || pred.compares_to_null_literal) continue;
      if (pred.column.empty()) continue;
      if (!ctx.schema->IsNullableColumn(pred.column, query.facts.shared->tables)) continue;
      hit = true;
      instance->detail.push_back(pred.column);
    }
    return hit;
  }

  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const override {
    const ParsedQuery& query = *members[0];
    std::unordered_set<std::string> columns(instance.detail.begin(), instance.detail.end());
    auto stmt = query.facts.ast->Clone();
    if (!stmt->where) return Status::Internal("null-fear query without WHERE");
    bool changed = false;
    stmt->where = AddNullGuards(std::move(stmt->where), columns, changed);
    if (!changed) {
      return Status::Unsupported("no <> comparison on a flagged column to guard");
    }
    return PrintCanonical(*stmt);
  }

 private:
  /// Wraps every `col <> x` whose column was flagged at detection time in
  /// `(col <> x OR col IS NULL)`, recursing only through the boolean
  /// connectives (the printer restores precedence parentheses).
  static sql::ExprPtr AddNullGuards(sql::ExprPtr expr,
                                    const std::unordered_set<std::string>& columns,
                                    bool& changed) {
    if (expr->kind() != sql::ExprKind::kBinary) return expr;
    auto* bin = static_cast<sql::BinaryExpr*>(expr.get());
    if (bin->op == sql::BinaryOp::kAnd || bin->op == sql::BinaryOp::kOr) {
      bin->lhs = AddNullGuards(std::move(bin->lhs), columns, changed);
      bin->rhs = AddNullGuards(std::move(bin->rhs), columns, changed);
      return expr;
    }
    if (bin->op != sql::BinaryOp::kNotEq) return expr;
    const sql::Expr* side = bin->lhs->kind() == sql::ExprKind::kColumnRef
                                ? bin->lhs.get()
                                : (bin->rhs->kind() == sql::ExprKind::kColumnRef
                                       ? bin->rhs.get()
                                       : nullptr);
    if (side == nullptr) return expr;
    const auto& col = static_cast<const sql::ColumnRefExpr&>(*side);
    if (columns.count(ToLower(col.name)) == 0) return expr;
    auto guard = sql::MakeNode<sql::IsNullExpr>(
        sql::MakeNode<sql::ColumnRefExpr>(col.qualifier, col.name), /*negated=*/false);
    changed = true;
    return sql::MakeNode<sql::BinaryExpr>(sql::BinaryOp::kOr, std::move(expr),
                                          std::move(guard));
  }

  DetectorInfo info_;
};

/// Spaghetti query smell: a comma-separated multi-table FROM with no
/// column equi-join predicate — an (often accidental) cross product.
/// Detect-only.
class SpaghettiJoinDetector final : public Detector {
 public:
  SpaghettiJoinDetector() {
    info_.id = "spaghetti-join";
    info_.display_name = "Implicit Cross Join";
    info_.description = "comma-joined tables without a join predicate (cross product)";
  }

  const DetectorInfo& info() const override { return info_; }

  bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                  AntipatternInstance* instance) const override {
    (void)ctx;
    const sql::TemplateFacts& facts = *query.facts.shared;
    if (facts.from_item_count < 2) return false;
    for (const auto& pred : facts.predicates) {
      if (pred.column_equijoin) return false;
    }
    instance->detail = facts.tables;
    return true;
  }

 private:
  DetectorInfo info_;
};

/// Non-sargable filter: a function or arithmetic expression wrapped
/// around an indexed (key) column defeats index use. Solvable for
/// additive arithmetic (`col + 7 > 9` folds to `col > 2`); function
/// wraps are detect-only and surface as rewrite failures.
class NonSargableDetector final : public Detector {
 public:
  NonSargableDetector() {
    info_.id = "non-sargable";
    info_.display_name = "Non-Sargable Filter";
    info_.description = "computed comparisons on key columns defeat index use";
    info_.solvable = true;
  }

  const DetectorInfo& info() const override { return info_; }

  bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                  AntipatternInstance* instance) const override {
    if (ctx.schema == nullptr) return false;  // schema-aware detector
    bool hit = false;
    for (const auto& pred : query.facts.shared->predicates) {
      if (!pred.lhs_computed) continue;
      if (!IsComparison(pred.computed_op)) continue;
      if (pred.column.empty()) continue;
      if (!ctx.schema->IsKeyColumn(pred.column, query.facts.shared->tables)) continue;
      hit = true;
      instance->detail.push_back(pred.column);
    }
    return hit;
  }

  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const override {
    (void)instance;
    const ParsedQuery& query = *members[0];
    auto stmt = query.facts.ast->Clone();
    if (!stmt->where) return Status::Internal("non-sargable query without WHERE");
    bool changed = false;
    stmt->where = FoldArithmetic(std::move(stmt->where), changed);
    if (!changed) {
      return Status::Unsupported("only additive arithmetic on a column can be folded");
    }
    return PrintCanonical(*stmt);
  }

 private:
  static bool IsComparison(sql::PredicateOp op) {
    switch (op) {
      case sql::PredicateOp::kEq:
      case sql::PredicateOp::kNotEq:
      case sql::PredicateOp::kLess:
      case sql::PredicateOp::kLessEq:
      case sql::PredicateOp::kGreater:
      case sql::PredicateOp::kGreaterEq:
        return true;
      default:
        return false;
    }
  }

  static bool IsComparisonOp(sql::BinaryOp op) {
    switch (op) {
      case sql::BinaryOp::kEq:
      case sql::BinaryOp::kNotEq:
      case sql::BinaryOp::kLess:
      case sql::BinaryOp::kLessEq:
      case sql::BinaryOp::kGreater:
      case sql::BinaryOp::kGreaterEq:
        return true;
      default:
        return false;
    }
  }

  static const sql::LiteralExpr* AsNumber(const sql::Expr& expr) {
    if (expr.kind() != sql::ExprKind::kLiteral) return nullptr;
    const auto& lit = static_cast<const sql::LiteralExpr&>(expr);
    return lit.literal_kind == sql::LiteralKind::kNumber ? &lit : nullptr;
  }

  static sql::ExprPtr NumberNode(double value) {
    std::string text = StrFormat("%g", value);
    auto lit = sql::MakeNode<sql::LiteralExpr>(sql::LiteralKind::kNumber, text);
    lit->number_value = value;
    return lit;
  }

  /// `col ± c` with a numeric constant: returns the column node and the
  /// signed offset. `c - col` is not linear-foldable and is skipped.
  static sql::ExprPtr ExtractShiftedColumn(sql::ExprPtr& expr, double& offset) {
    if (expr->kind() != sql::ExprKind::kBinary) return nullptr;
    auto* bin = static_cast<sql::BinaryExpr*>(expr.get());
    if (bin->op != sql::BinaryOp::kAdd && bin->op != sql::BinaryOp::kSub) return nullptr;
    const double sign = bin->op == sql::BinaryOp::kSub ? -1.0 : 1.0;
    if (bin->lhs->kind() == sql::ExprKind::kColumnRef) {
      const sql::LiteralExpr* c = AsNumber(*bin->rhs);
      if (c == nullptr) return nullptr;
      offset = sign * c->number_value;
      return std::move(bin->lhs);
    }
    if (bin->op == sql::BinaryOp::kAdd && bin->rhs->kind() == sql::ExprKind::kColumnRef) {
      const sql::LiteralExpr* c = AsNumber(*bin->lhs);
      if (c == nullptr) return nullptr;
      offset = c->number_value;
      return std::move(bin->rhs);
    }
    return nullptr;
  }

  /// Folds `col ± c1 CMP c2` into `col CMP (c2 ∓ c1)` (either operand
  /// order), recursing through the boolean connectives.
  static sql::ExprPtr FoldArithmetic(sql::ExprPtr expr, bool& changed) {
    if (expr->kind() != sql::ExprKind::kBinary) return expr;
    auto* bin = static_cast<sql::BinaryExpr*>(expr.get());
    if (bin->op == sql::BinaryOp::kAnd || bin->op == sql::BinaryOp::kOr) {
      bin->lhs = FoldArithmetic(std::move(bin->lhs), changed);
      bin->rhs = FoldArithmetic(std::move(bin->rhs), changed);
      return expr;
    }
    if (!IsComparisonOp(bin->op)) return expr;
    double offset = 0.0;
    if (const sql::LiteralExpr* rhs = AsNumber(*bin->rhs)) {
      sql::ExprPtr column = ExtractShiftedColumn(bin->lhs, offset);
      if (column != nullptr) {
        bin->lhs = std::move(column);
        bin->rhs = NumberNode(rhs->number_value - offset);
        changed = true;
      }
      return expr;
    }
    if (const sql::LiteralExpr* lhs = AsNumber(*bin->lhs)) {
      sql::ExprPtr column = ExtractShiftedColumn(bin->rhs, offset);
      if (column != nullptr) {
        bin->rhs = std::move(column);
        bin->lhs = NumberNode(lhs->number_value - offset);
        changed = true;
      }
      return expr;
    }
    return expr;
  }

  DetectorInfo info_;
};

}  // namespace

void RegisterBuiltinDetectors(DetectorRegistry& registry) {
  auto must = [](Status status) {
    (void)status;
    assert(status.ok() && "built-in detector registration must not fail");
  };
  must(registry.Register(std::make_shared<StifleDetector>(StifleKind::kDw)));
  must(registry.Register(std::make_shared<StifleDetector>(StifleKind::kDs)));
  must(registry.Register(std::make_shared<StifleDetector>(StifleKind::kDf)));
  must(registry.Register(std::make_shared<CthDetector>()));
  must(registry.Register(std::make_shared<SncDetector>()));
  must(registry.Register(std::make_shared<SelectStarDetector>()));
  must(registry.Register(std::make_shared<NullFearDetector>()));
  must(registry.Register(std::make_shared<SpaghettiJoinDetector>()));
  must(registry.Register(std::make_shared<NonSargableDetector>()));
}

}  // namespace sqlog::core
