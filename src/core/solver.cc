#include "core/solver.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "sql/ast.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/string_util.h"

namespace sqlog::core {

namespace {

namespace sql = ::sqlog::sql;

/// Parses the literal text recorded in a Predicate back into an AST
/// literal (values were canonically printed by the analyzer).
sql::ExprPtr LiteralFromText(const std::string& text) {
  if (text.size() >= 2 && text.front() == '\'' && text.back() == '\'') {
    std::string inner = text.substr(1, text.size() - 2);
    // Undo the doubled-quote escaping of the canonical printer.
    std::string unescaped;
    for (size_t i = 0; i < inner.size(); ++i) {
      unescaped.push_back(inner[i]);
      if (inner[i] == '\'' && i + 1 < inner.size() && inner[i + 1] == '\'') ++i;
    }
    return sql::MakeNode<sql::LiteralExpr>(sql::LiteralKind::kString, unescaped);
  }
  if (EqualsIgnoreCase(text, "null")) {
    return sql::MakeNode<sql::LiteralExpr>(sql::LiteralKind::kNull, "NULL");
  }
  auto lit = sql::MakeNode<sql::LiteralExpr>(sql::LiteralKind::kNumber, text);
  lit->number_value = std::strtod(text.c_str(), nullptr);
  return lit;
}

/// True when the select list already exposes `column` (unqualified
/// compare) or selects `*`.
bool SelectExposes(const sql::SelectStatement& stmt, const std::string& column) {
  for (const auto& item : stmt.select_items) {
    if (item.expr->kind() == sql::ExprKind::kStar) return true;
    if (item.expr->kind() == sql::ExprKind::kColumnRef &&
        EqualsIgnoreCase(static_cast<const sql::ColumnRefExpr&>(*item.expr).name, column)) {
      return true;
    }
  }
  return false;
}

std::string PrintRewritten(const sql::SelectStatement& stmt) {
  sql::PrintOptions opts;
  opts.canonical = true;
  return Print(stmt, opts);
}

/// Extracts the single TableRef of a DF-Stifle member query; null when
/// the FROM shape is unsupported for the join rewrite.
const sql::TableRef* SingleTable(const sql::SelectStatement& stmt) {
  if (stmt.from_items.size() != 1) return nullptr;
  if (stmt.from_items[0]->kind() != sql::FromKind::kTable) return nullptr;
  return static_cast<const sql::TableRef*>(stmt.from_items[0].get());
}

/// RecordWriter appending to an in-memory log — SolveAntipatterns's
/// stand-in for the file writers of the streaming path. Seqs are
/// renumbered positionally, as file writers do with renumber=true.
class MemoryWriter final : public log::RecordWriter {
 public:
  explicit MemoryWriter(log::QueryLog& out) : out_(out) {}

  Status Open(const std::string& path) override {
    (void)path;
    return Status::OK();
  }
  Status Append(const log::LogRecord& record) override {
    out_.Append(record);
    out_.records().back().seq = out_.size() - 1;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t records_written() const override { return out_.size(); }

 private:
  log::QueryLog& out_;
};

}  // namespace

Result<std::string> RewriteDwStifle(const std::vector<const ParsedQuery*>& members) {
  if (members.size() < 2) {
    return Status::InvalidArgument("DW-Stifle instance needs at least 2 queries");
  }
  const ParsedQuery& first = *members[0];
  if (first.facts.shared->predicates.size() != 1) {
    return Status::Internal("DW-Stifle member without single predicate");
  }
  const sql::Predicate& pred = first.facts.shared->predicates[0];

  auto stmt = first.facts.ast->Clone();

  // Collect the member constants in log order, deduplicated.
  std::vector<sql::ExprPtr> values;
  std::unordered_set<std::string> seen;
  for (const ParsedQuery* member : members) {
    if (member->facts.shared->predicates.size() != 1 || member->facts.values(0).size() != 1) {
      return Status::Internal("DW-Stifle member with unexpected predicate shape");
    }
    const std::string& text = member->facts.values(0)[0];
    if (seen.insert(text).second) values.push_back(LiteralFromText(text));
  }

  auto column = sql::MakeNode<sql::ColumnRefExpr>(pred.qualifier, pred.column);
  // Expose the filter column so each result row stays attributable
  // (paper Example 10 adds empId to the select list).
  if (!SelectExposes(*stmt, pred.column)) {
    stmt->select_items.insert(
        stmt->select_items.begin(),
        sql::SelectItem(sql::MakeNode<sql::ColumnRefExpr>(pred.qualifier, pred.column),
                        ""));
  }
  stmt->where = sql::MakeNode<sql::InListExpr>(std::move(column), std::move(values),
                                               /*negated=*/false);
  return PrintRewritten(*stmt);
}

Result<std::string> RewriteDsStifle(const std::vector<const ParsedQuery*>& members) {
  if (members.size() < 2) {
    return Status::InvalidArgument("DS-Stifle instance needs at least 2 queries");
  }
  auto stmt = members[0]->facts.ast->Clone();
  std::unordered_set<std::string> seen;
  sql::PrintOptions opts;
  opts.canonical = true;
  for (auto& item : stmt->select_items) {
    seen.insert(Print(*item.expr, opts));
  }
  for (size_t i = 1; i < members.size(); ++i) {
    for (const auto& item : members[i]->facts.ast->select_items) {
      std::string key = Print(*item.expr, opts);
      if (seen.insert(key).second) {
        stmt->select_items.push_back(item.Copy());
      }
    }
  }
  return PrintRewritten(*stmt);
}

Result<std::string> RewriteDfStifle(const std::vector<const ParsedQuery*>& members) {
  if (members.size() < 2) {
    return Status::InvalidArgument("DF-Stifle instance needs at least 2 queries");
  }
  // All members share the WHERE (same filter column + constant) but read
  // from different tables. Build:
  //   SELECT t1.c…, t2.c… FROM T1 t1 INNER JOIN T2 t2 ON t1.col = t2.col
  //   WHERE t1.col = value
  const sql::QueryFacts& first = members[0]->facts;
  const sql::Predicate& pred = first.shared->predicates.at(0);
  if (first.values(0).empty()) {
    return Status::Internal("DF-Stifle member without a constant filter value");
  }

  // Resolve each member's base table and an alias for it.
  std::vector<const sql::TableRef*> tables;
  std::vector<std::string> aliases;
  std::unordered_set<std::string> used_aliases;
  for (const ParsedQuery* member : members) {
    const sql::TableRef* table = SingleTable(*member->facts.ast);
    if (table == nullptr) {
      return Status::Unsupported("DF-Stifle member with non-trivial FROM");
    }
    std::string alias = table->alias.empty() ? ToLower(table->table) : ToLower(table->alias);
    if (!used_aliases.insert(alias).second) {
      alias += StrFormat("_%zu", tables.size());
      used_aliases.insert(alias);
    }
    tables.push_back(table);
    aliases.push_back(alias);
  }

  auto stmt = sql::MakeNode<sql::SelectStatement>();

  // Qualified union of the member select lists, in log order.
  std::unordered_set<std::string> seen;
  sql::PrintOptions opts;
  opts.canonical = true;
  for (size_t i = 0; i < members.size(); ++i) {
    for (const auto& item : members[i]->facts.ast->select_items) {
      sql::SelectItem copy = item.Copy();
      if (copy.expr->kind() == sql::ExprKind::kColumnRef) {
        auto& col = static_cast<sql::ColumnRefExpr&>(*copy.expr);
        col.qualifier = aliases[i];
      } else if (copy.expr->kind() == sql::ExprKind::kStar) {
        static_cast<sql::StarExpr&>(*copy.expr).qualifier = aliases[i];
      }
      std::string key = Print(*copy.expr, opts);
      if (seen.insert(key).second) stmt->select_items.push_back(std::move(copy));
    }
  }

  // Left-deep join tree on the shared filter column.
  sql::FromItemPtr from = sql::MakeNode<sql::TableRef>(tables[0]->schema,
                                                       tables[0]->table, aliases[0]);
  for (size_t i = 1; i < tables.size(); ++i) {
    auto right = sql::MakeNode<sql::TableRef>(tables[i]->schema, tables[i]->table,
                                              aliases[i]);
    auto condition = sql::MakeNode<sql::BinaryExpr>(
        sql::BinaryOp::kEq,
        sql::MakeNode<sql::ColumnRefExpr>(aliases[0], pred.column),
        sql::MakeNode<sql::ColumnRefExpr>(aliases[i], pred.column));
    from = sql::MakeNode<sql::JoinRef>(sql::JoinType::kInner, std::move(from),
                                       std::move(right), std::move(condition));
  }
  stmt->from_items.push_back(std::move(from));

  stmt->where = sql::MakeNode<sql::BinaryExpr>(
      sql::BinaryOp::kEq, sql::MakeNode<sql::ColumnRefExpr>(aliases[0], pred.column),
      LiteralFromText(first.values(0)[0]));
  return PrintRewritten(*stmt);
}

namespace {

/// Recursively replaces `col = NULL` / `col <> NULL` with IS [NOT] NULL.
sql::ExprPtr FixNullComparisons(sql::ExprPtr expr) {
  switch (expr->kind()) {
    case sql::ExprKind::kBinary: {
      auto* bin = static_cast<sql::BinaryExpr*>(expr.get());
      bool is_eq = bin->op == sql::BinaryOp::kEq;
      bool is_neq = bin->op == sql::BinaryOp::kNotEq;
      auto is_null_literal = [](const sql::Expr& e) {
        return e.kind() == sql::ExprKind::kLiteral &&
               static_cast<const sql::LiteralExpr&>(e).literal_kind ==
                   sql::LiteralKind::kNull;
      };
      if ((is_eq || is_neq) && is_null_literal(*bin->rhs)) {
        return sql::MakeNode<sql::IsNullExpr>(std::move(bin->lhs), is_neq);
      }
      if ((is_eq || is_neq) && is_null_literal(*bin->lhs)) {
        return sql::MakeNode<sql::IsNullExpr>(std::move(bin->rhs), is_neq);
      }
      bin->lhs = FixNullComparisons(std::move(bin->lhs));
      bin->rhs = FixNullComparisons(std::move(bin->rhs));
      return expr;
    }
    case sql::ExprKind::kUnary: {
      auto* unary = static_cast<sql::UnaryExpr*>(expr.get());
      unary->operand = FixNullComparisons(std::move(unary->operand));
      return expr;
    }
    default:
      return expr;
  }
}

}  // namespace

Result<std::string> RewriteSnc(const ParsedQuery& query) {
  auto stmt = query.facts.ast->Clone();
  if (!stmt->where) return Status::Internal("SNC query without WHERE");
  stmt->where = FixNullComparisons(std::move(stmt->where));
  return PrintRewritten(*stmt);
}

SolveOutcome SolveAntipatterns(const log::QueryLog& pre_clean, ParsedLog& parsed,
                               const AntipatternReport& report,
                               const std::vector<CustomRule>& custom_rules) {
  (void)custom_rules;
  SolveOutcome outcome;
  // Each pre-clean record reaches each log at most once, so this bounds
  // both logs and spares them their doubling regrowth.
  outcome.clean_log.records().reserve(pre_clean.size());
  outcome.removal_log.records().reserve(pre_clean.size());
  MemoryWriter clean_writer(outcome.clean_log);
  MemoryWriter removal_writer(outcome.removal_log);
  StreamingSolver solver(parsed, report, clean_writer, removal_writer);
  for (const log::LogRecord& record : pre_clean.records()) {
    outcome.status = solver.Feed(record);
    if (!outcome.status.ok()) break;
  }
  if (outcome.status.ok()) outcome.status = solver.Finish();
  outcome.stats = solver.stats();
  return outcome;
}

StreamingSolver::StreamingSolver(ParsedLog& parsed, const AntipatternReport& report,
                                 log::RecordWriter& clean_writer,
                                 log::RecordWriter& removal_writer)
    : parsed_(parsed),
      report_(report),
      clean_writer_(clean_writer),
      removal_writer_(removal_writer) {
  // Every unsolvable instance counts once; every solved instance gets a
  // rewrite, deferred until its last listed member streams past.
  for (size_t k = 0; k < report_.instances.size(); ++k) {
    const AntipatternInstance& instance = report_.instances[k];
    if (!report_.detectors->Solvable(instance)) {
      ++stats_.instances_unsolvable;
      continue;
    }
    uint32_t id = static_cast<uint32_t>(k + 1);
    if (!ClaimsFirstQuery(id)) continue;  // not solved, counted nowhere
    const auto& members = instance.query_indices;
    by_last_member_.emplace_back(*std::max_element(members.begin(), members.end()), id);
  }
  std::sort(by_last_member_.begin(), by_last_member_.end());
}

bool StreamingSolver::ClaimsFirstQuery(uint32_t instance_id) const {
  const AntipatternInstance& instance = report_.instances[instance_id - 1];
  return report_.instance_of_query[instance.query_indices.front()] == instance_id;
}

Status StreamingSolver::Feed(const log::LogRecord& record, const log::RecordShape* shape) {
  const size_t r = next_record_++;
  // Non-SELECTs and syntax errors have no parsed query and never reach
  // the output logs.
  if (next_query_ == parsed_.queries.size() ||
      parsed_.queries[next_query_].record_index != r) {
    return Status::OK();
  }
  const size_t q = next_query_++;

  Slot slot;
  const uint32_t claiming = report_.instance_of_query[q];
  if (claiming == 0) {
    slot.resolved = true;
    slot.to_clean = true;
    slot.to_removal = true;
  } else {
    const AntipatternInstance& instance = report_.instances[claiming - 1];
    if (!report_.detectors->Solvable(instance)) {
      // CTH candidates stay in the clean log but leave the removal log.
      slot.resolved = true;
      slot.to_clean = true;
      slot.to_removal = false;
    } else if (!ClaimsFirstQuery(claiming)) {
      // An earlier instance claimed this one's first query, so its rewrite
      // has no slot: its queries stay verbatim in both logs.
      slot.resolved = true;
      slot.to_clean = true;
      slot.to_removal = true;
    } else {
      slot.instance_id = claiming;
      slot.is_first = instance.query_indices.front() == q;
    }
  }
  slot.record = record;
  slot.shape.CopyFrom(shape);
  slots_.push_back(std::move(slot));

  while (next_solved_ < by_last_member_.size() && by_last_member_[next_solved_].first == q) {
    SQLOG_RETURN_IF_ERROR(ResolveInstance(by_last_member_[next_solved_++].second));
  }
  return Drain();
}

Status StreamingSolver::ResolveInstance(uint32_t instance_id) {
  const AntipatternInstance& instance = report_.instances[instance_id - 1];
  // Members without an AST are re-parsed from their queued records (the
  // instance's unresolved first slot keeps every later slot queued) and
  // cleared again before this returns.
  const size_t queued_begin = next_query_ - slots_.size();
  std::vector<size_t> reparsed;
  auto clear_reparsed = [&] {
    for (size_t idx : reparsed) parsed_.queries[idx].facts.ast.reset();
  };
  std::vector<const ParsedQuery*> members;
  members.reserve(instance.query_indices.size());
  for (size_t idx : instance.query_indices) {
    ParsedQuery& member = parsed_.queries[idx];
    members.push_back(&member);
    if (member.facts.ast != nullptr) continue;
    if (idx < queued_begin) {
      clear_reparsed();
      return Status::Internal(StrFormat(
          "pre-clean record %zu, listed before its instance's first member, left the "
          "output queue before the instance resolved (members must be in log order)",
          member.record_index));
    }
    const log::LogRecord& record = slots_[idx - queued_begin].record;
    auto ast = sql::ParseSelect(record.statement);
    if (!ast.ok()) {
      clear_reparsed();
      return Status::Internal(StrFormat(
          "pre-clean record %zu (seq %llu) no longer parses: %s", member.record_index,
          (unsigned long long)record.seq, ast.status().message().c_str()));
    }
    member.facts.ast = std::move(ast.value());
    reparsed.push_back(idx);
  }

  Result<std::string> rewrite = report_.detectors->Rewrite(instance, members);
  clear_reparsed();
  if (rewrite.ok()) {
    ++stats_.instances_solved;
    // Single-query instances are in-place fixes; multi-query instances
    // merge into their first member.
    if (instance.query_indices.size() == 1) {
      ++stats_.queries_rewritten_in_place;
    } else {
      stats_.queries_merged += instance.query_indices.size() - 1;
    }
  } else {
    ++stats_.rewrite_failures;
  }

  // All slots claimed by this instance are still queued (pending slots
  // never drain); mark their fate.
  for (Slot& slot : slots_) {
    if (slot.instance_id != instance_id || slot.resolved) continue;
    slot.resolved = true;
    if (rewrite.ok()) {
      if (slot.is_first) {
        slot.record.statement = rewrite.value();
        slot.shape.CopyFrom(nullptr);  // the source shape describes the old text
        slot.to_clean = true;
      }
      // Non-first members of solved instances reach neither log.
    } else {
      // Failed rewrites keep the instance verbatim in both logs.
      slot.to_clean = true;
      slot.to_removal = true;
    }
  }
  return Status::OK();
}

Status StreamingSolver::Drain() {
  while (!slots_.empty() && slots_.front().resolved) {
    Slot& slot = slots_.front();
    if (slot.to_clean) {
      SQLOG_RETURN_IF_ERROR(clean_writer_.AppendShaped(slot.record, &slot.shape));
    }
    if (slot.to_removal) {
      SQLOG_RETURN_IF_ERROR(removal_writer_.AppendShaped(slot.record, &slot.shape));
    }
    slots_.pop_front();
  }
  return Status::OK();
}

Status StreamingSolver::Finish() {
  if (next_query_ != parsed_.queries.size()) {
    return Status::Internal(StrFormat(
        "%zu parsed queries were never fed: the records fed do not match the "
        "parsed log (did the input change between passes?)",
        parsed_.queries.size() - next_query_));
  }
  SQLOG_RETURN_IF_ERROR(Drain());
  if (!slots_.empty()) {
    return Status::Internal("unresolved output slots at end of stream");
  }
  return Status::OK();
}

}  // namespace sqlog::core
