#include "sql/skeleton.h"

#include <algorithm>

#include "sql/parser.h"
#include "sql/printer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace sqlog::sql {

namespace {

PredicateOp FromBinaryOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return PredicateOp::kEq;
    case BinaryOp::kNotEq: return PredicateOp::kNotEq;
    case BinaryOp::kLess: return PredicateOp::kLess;
    case BinaryOp::kLessEq: return PredicateOp::kLessEq;
    case BinaryOp::kGreater: return PredicateOp::kGreater;
    case BinaryOp::kGreaterEq: return PredicateOp::kGreaterEq;
    default: return PredicateOp::kOther;
  }
}

/// Flips asymmetric comparison operators for `literal op column` form.
PredicateOp Mirror(PredicateOp op) {
  switch (op) {
    case PredicateOp::kLess: return PredicateOp::kGreater;
    case PredicateOp::kLessEq: return PredicateOp::kGreaterEq;
    case PredicateOp::kGreater: return PredicateOp::kLess;
    case PredicateOp::kGreaterEq: return PredicateOp::kLessEq;
    default: return op;
  }
}

bool IsConstantOperand(const Expr& expr) {
  return expr.kind() == ExprKind::kLiteral || expr.kind() == ExprKind::kVariable;
}

bool IsNullLiteral(const Expr& expr) {
  return expr.kind() == ExprKind::kLiteral &&
         static_cast<const LiteralExpr&>(expr).literal_kind == LiteralKind::kNull;
}

std::string ConstantText(const Expr& expr) {
  PrintOptions opts;
  opts.canonical = true;
  return Print(expr, opts);
}

/// Extracts (qualifier, column) from a column-ref expression; returns
/// false for anything else.
bool AsColumn(const Expr& expr, std::string& qualifier, std::string& column) {
  if (expr.kind() != ExprKind::kColumnRef) return false;
  const auto& col = static_cast<const ColumnRefExpr&>(expr);
  qualifier = ToLower(col.qualifier);
  column = ToLower(col.name);
  return true;
}

/// Matches computed-column shapes: a function call whose arguments are
/// exactly one column plus constants (`upper(name)`, `round(ra, 2)`),
/// or an arithmetic node over one column and one constant
/// (`objid + 1`, `2 * z`). Extracts the wrapped column and the function
/// name / operator spelling.
bool AsComputedColumn(const Expr& expr, std::string& qualifier, std::string& column,
                      std::string& fn) {
  if (expr.kind() == ExprKind::kFunctionCall) {
    const auto& call = static_cast<const FunctionCallExpr&>(expr);
    const Expr* column_arg = nullptr;
    for (const auto& arg : call.args) {
      if (arg->kind() == ExprKind::kColumnRef) {
        if (column_arg != nullptr) return false;  // two columns: not single-column
        column_arg = arg.get();
      } else if (!IsConstantOperand(*arg)) {
        return false;
      }
    }
    if (column_arg == nullptr || !AsColumn(*column_arg, qualifier, column)) return false;
    fn = ToLower(call.name);
    return true;
  }
  if (expr.kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(expr);
    char spelled;
    switch (bin.op) {
      case BinaryOp::kAdd: spelled = '+'; break;
      case BinaryOp::kSub: spelled = '-'; break;
      case BinaryOp::kMul: spelled = '*'; break;
      case BinaryOp::kDiv: spelled = '/'; break;
      case BinaryOp::kMod: spelled = '%'; break;
      default: return false;
    }
    if ((AsColumn(*bin.lhs, qualifier, column) && IsConstantOperand(*bin.rhs)) ||
        (AsColumn(*bin.rhs, qualifier, column) && IsConstantOperand(*bin.lhs))) {
      fn.assign(1, spelled);
      return true;
    }
    return false;
  }
  return false;
}

/// Recursively collects leaf predicates from a WHERE tree. Any OR or NOT
/// above leaf level flips `conjunctive` off; leaves below it are still
/// collected so CP counts remain meaningful. Each leaf's constant values
/// are appended to `values`; `value_exprs`, when set, records the AST
/// node behind every appended value, in order.
void CollectPredicates(const Expr& expr, std::vector<Predicate>& out, bool& conjunctive,
                       std::vector<std::string>& values,
                       std::vector<const Expr*>* value_exprs) {
  auto new_pred = [&] {
    Predicate pred;
    pred.value_begin = static_cast<uint32_t>(values.size());
    return pred;
  };
  auto push_value = [&](Predicate& pred, const Expr& value) {
    values.push_back(ConstantText(value));
    ++pred.value_count;
    if (value_exprs != nullptr) value_exprs->push_back(&value);
  };
  auto recurse = [&](const Expr& child) {
    CollectPredicates(child, out, conjunctive, values, value_exprs);
  };
  switch (expr.kind()) {
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      if (bin.op == BinaryOp::kAnd) {
        recurse(*bin.lhs);
        recurse(*bin.rhs);
        return;
      }
      if (bin.op == BinaryOp::kOr) {
        conjunctive = false;
        recurse(*bin.lhs);
        recurse(*bin.rhs);
        return;
      }
      Predicate pred = new_pred();
      pred.op = FromBinaryOp(bin.op);
      std::string qualifier;
      std::string column;
      if (AsColumn(*bin.lhs, qualifier, column) && IsConstantOperand(*bin.rhs)) {
        pred.qualifier = qualifier;
        pred.column = column;
        push_value(pred, *bin.rhs);
        pred.constant_comparison = true;
        pred.compares_to_null_literal =
            (pred.op == PredicateOp::kEq || pred.op == PredicateOp::kNotEq) &&
            IsNullLiteral(*bin.rhs);
      } else if (AsColumn(*bin.rhs, qualifier, column) && IsConstantOperand(*bin.lhs)) {
        pred.op = Mirror(pred.op);
        pred.qualifier = qualifier;
        pred.column = column;
        push_value(pred, *bin.lhs);
        pred.constant_comparison = true;
        pred.compares_to_null_literal =
            (pred.op == PredicateOp::kEq || pred.op == PredicateOp::kNotEq) &&
            IsNullLiteral(*bin.lhs);
      } else {
        pred.op = PredicateOp::kOther;
        // Record the left column when present (e.g., join predicates),
        // so downstream heuristics can still see what is filtered.
        std::string rhs_qualifier;
        std::string rhs_column;
        std::string fn;
        if (AsColumn(*bin.lhs, qualifier, column)) {
          pred.qualifier = qualifier;
          pred.column = column;
          pred.column_equijoin =
              bin.op == BinaryOp::kEq && AsColumn(*bin.rhs, rhs_qualifier, rhs_column);
        } else if (AsComputedColumn(*bin.lhs, qualifier, column, fn) &&
                   IsConstantOperand(*bin.rhs)) {
          pred.qualifier = qualifier;
          pred.column = column;
          pred.lhs_computed = true;
          pred.computed_op = FromBinaryOp(bin.op);
          pred.computed_fn = std::move(fn);
        } else if (AsComputedColumn(*bin.rhs, qualifier, column, fn) &&
                   IsConstantOperand(*bin.lhs)) {
          pred.qualifier = qualifier;
          pred.column = column;
          pred.lhs_computed = true;
          pred.computed_op = Mirror(FromBinaryOp(bin.op));
          pred.computed_fn = std::move(fn);
        }
      }
      out.push_back(std::move(pred));
      return;
    }
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::kNot) {
        conjunctive = false;
        recurse(*unary.operand);
        return;
      }
      Predicate pred = new_pred();
      pred.op = PredicateOp::kOther;
      out.push_back(std::move(pred));
      return;
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      Predicate pred = new_pred();
      pred.op = PredicateOp::kBetween;
      std::string qualifier;
      std::string column;
      if (AsColumn(*between.operand, qualifier, column)) {
        pred.qualifier = qualifier;
        pred.column = column;
        if (IsConstantOperand(*between.low) && IsConstantOperand(*between.high)) {
          push_value(pred, *between.low);
          push_value(pred, *between.high);
          pred.constant_comparison = true;
        }
      }
      out.push_back(std::move(pred));
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      Predicate pred = new_pred();
      pred.op = PredicateOp::kIn;
      std::string qualifier;
      std::string column;
      if (AsColumn(*in.operand, qualifier, column)) {
        pred.qualifier = qualifier;
        pred.column = column;
        bool all_constant = true;
        for (const auto& item : in.items) {
          if (!IsConstantOperand(*item)) {
            all_constant = false;
            break;
          }
        }
        if (all_constant) {
          for (const auto& item : in.items) push_value(pred, *item);
          pred.constant_comparison = true;
        }
      }
      out.push_back(std::move(pred));
      return;
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(expr);
      Predicate pred = new_pred();
      pred.op = is_null.negated ? PredicateOp::kIsNotNull : PredicateOp::kIsNull;
      std::string qualifier;
      std::string column;
      if (AsColumn(*is_null.operand, qualifier, column)) {
        pred.qualifier = qualifier;
        pred.column = column;
      }
      out.push_back(std::move(pred));
      return;
    }
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(expr);
      Predicate pred = new_pred();
      pred.op = PredicateOp::kLike;
      std::string qualifier;
      std::string column;
      if (AsColumn(*like.operand, qualifier, column)) {
        pred.qualifier = qualifier;
        pred.column = column;
        if (IsConstantOperand(*like.pattern)) {
          push_value(pred, *like.pattern);
          pred.constant_comparison = true;
        }
      }
      out.push_back(std::move(pred));
      return;
    }
    default: {
      Predicate pred = new_pred();
      pred.op = PredicateOp::kOther;
      out.push_back(std::move(pred));
      return;
    }
  }
}

/// Flattens FROM items into base tables and table functions.
void CollectFromNames(const FromItem& item, std::vector<std::string>& tables,
                      std::vector<std::string>& functions) {
  switch (item.kind()) {
    case FromKind::kTable: {
      const auto& table = static_cast<const TableRef&>(item);
      tables.push_back(ToLower(table.table));
      return;
    }
    case FromKind::kTableFunction: {
      const auto& fn = static_cast<const TableFunctionRef&>(item);
      functions.push_back(ToLower(fn.name));
      return;
    }
    case FromKind::kSubquery: {
      const auto& sub = static_cast<const SubqueryRef&>(item);
      for (const auto& inner : sub.subquery->from_items) {
        CollectFromNames(*inner, tables, functions);
      }
      return;
    }
    case FromKind::kJoin: {
      const auto& join = static_cast<const JoinRef&>(item);
      CollectFromNames(*join.left, tables, functions);
      CollectFromNames(*join.right, tables, functions);
      return;
    }
  }
}

/// Output column names: alias when given, the column name for plain
/// refs, the function name for calls (SQL Server style).
void CollectSelectedColumns(const SelectStatement& stmt, std::vector<std::string>& columns,
                            bool& star) {
  for (const auto& item : stmt.select_items) {
    if (!item.alias.empty()) {
      columns.push_back(ToLower(item.alias));
      continue;
    }
    switch (item.expr->kind()) {
      case ExprKind::kStar:
        star = true;
        break;
      case ExprKind::kColumnRef:
        columns.push_back(ToLower(static_cast<const ColumnRefExpr&>(*item.expr).name));
        break;
      case ExprKind::kFunctionCall:
        columns.push_back(ToLower(static_cast<const FunctionCallExpr&>(*item.expr).name));
        break;
      default:
        break;
    }
  }
}

}  // namespace

const char* PredicateOpName(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq: return "=";
    case PredicateOp::kNotEq: return "<>";
    case PredicateOp::kLess: return "<";
    case PredicateOp::kLessEq: return "<=";
    case PredicateOp::kGreater: return ">";
    case PredicateOp::kGreaterEq: return ">=";
    case PredicateOp::kBetween: return "between";
    case PredicateOp::kIn: return "in";
    case PredicateOp::kLike: return "like";
    case PredicateOp::kIsNull: return "is null";
    case PredicateOp::kIsNotNull: return "is not null";
    case PredicateOp::kOther: return "other";
  }
  return "other";
}

QueryTemplate MakeTemplate(const SelectStatement& stmt) {
  PrintOptions opts;
  opts.canonical = true;
  opts.placeholders = true;
  QueryTemplate tmpl;
  tmpl.ssc = PrintSelectClause(stmt, opts);
  tmpl.sfc = PrintFromClause(stmt, opts);
  tmpl.swc = PrintWhereClause(stmt, opts);
  tmpl.tail = PrintTailClauses(stmt, opts);
  uint64_t h = Fnv1a64(tmpl.ssc);
  h = HashCombine(h, Fnv1a64(tmpl.sfc));
  h = HashCombine(h, Fnv1a64(tmpl.swc));
  h = HashCombine(h, Fnv1a64(tmpl.tail));
  tmpl.fingerprint = h;
  return tmpl;
}

QueryFacts Analyze(std::shared_ptr<const SelectStatement> stmt,
                   std::vector<const Expr*>* predicate_value_exprs) {
  QueryFacts facts;
  auto shared = std::make_shared<TemplateFacts>();
  shared->tmpl = MakeTemplate(*stmt);

  PrintOptions concrete;
  concrete.canonical = true;
  concrete.placeholders = false;
  facts.sc = PrintSelectClause(*stmt, concrete);
  facts.fc = PrintFromClause(*stmt, concrete);
  facts.wc = PrintWhereClause(*stmt, concrete);

  if (stmt->where) {
    CollectPredicates(*stmt->where, shared->predicates, shared->where_conjunctive,
                      facts.predicate_values, predicate_value_exprs);
  }
  CollectSelectedColumns(*stmt, shared->selected_columns, shared->selects_star);
  shared->from_item_count = static_cast<int>(stmt->from_items.size());
  for (const auto& item : stmt->from_items) {
    CollectFromNames(*item, shared->tables, shared->table_functions);
  }
  facts.shared = std::move(shared);
  facts.ast = std::move(stmt);
  return facts;
}

Result<QueryFacts> ParseAndAnalyze(const std::string& statement_text) {
  auto parsed = ParseSelect(statement_text);
  if (!parsed.ok()) return parsed.status();
  std::shared_ptr<const SelectStatement> ast(std::move(parsed.value()));
  return Analyze(std::move(ast));
}

Result<QueryFacts> ParseAndAnalyzeTokens(const TokenStream& tokens,
                                         std::vector<const Expr*>* predicate_value_exprs) {
  auto parsed = ParseTokens(tokens);
  if (!parsed.ok()) return parsed.status();
  std::shared_ptr<const SelectStatement> ast(std::move(parsed.value()));
  return Analyze(std::move(ast), predicate_value_exprs);
}

}  // namespace sqlog::sql
