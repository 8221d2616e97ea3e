#include "analysis/describe.h"

#include <algorithm>

#include "util/string_util.h"

namespace sqlog::analysis {

namespace {

bool HasFunction(const sql::TemplateFacts& facts, const char* name) {
  for (const auto& fn : facts.table_functions) {
    if (fn == name) return true;
  }
  return false;
}

bool HasTable(const sql::TemplateFacts& facts, const char* name) {
  for (const auto& table : facts.tables) {
    if (table == name) return true;
  }
  return false;
}

const sql::Predicate* SinglePredicate(const sql::TemplateFacts& facts) {
  if (facts.predicates.size() != 1) return nullptr;
  return &facts.predicates[0];
}

bool IsAggregateOnly(const sql::TemplateFacts& facts) {
  return facts.selected_columns.size() == 1 &&
         (facts.selected_columns[0] == "count" || facts.selected_columns[0] == "sum" ||
          facts.selected_columns[0] == "min" || facts.selected_columns[0] == "max" ||
          facts.selected_columns[0] == "avg");
}

std::string MainTable(const sql::TemplateFacts& facts) {
  if (!facts.tables.empty()) return facts.tables.front();
  if (!facts.table_functions.empty()) return facts.table_functions.front();
  return "the database";
}

}  // namespace

std::string DescribeTemplate(const sql::TemplateFacts& facts) {
  // Spatial searches via the SkyServer table-valued functions.
  if (HasFunction(facts, "fgetnearbyobjeq")) {
    return "gets objects within a radius of an equatorial point (cone search)";
  }
  if (HasFunction(facts, "fgetnearestobjeq")) {
    return "gets the nearest object to an equatorial point";
  }
  if (HasFunction(facts, "fgetobjfromrect")) {
    return "gets objects inside a rectangular sky region";
  }

  const sql::Predicate* pred = SinglePredicate(facts);

  // HTM / range counting (the paper's rank-3 "special search").
  if (IsAggregateOnly(facts) && facts.selected_columns[0] == "count") {
    for (const auto& p : facts.predicates) {
      if (p.column == "htmid") {
        return "counts objects within a range of spherical triangles (HTM search)";
      }
    }
    return StrFormat("counts rows of %s", MainTable(facts).c_str());
  }

  // Point lookup by a key-ish equality.
  if (pred != nullptr && pred->op == sql::PredicateOp::kEq && pred->constant_comparison) {
    if (pred->column == "objid" || pred->column == "specobjid") {
      return StrFormat("fetches attributes of one object by %s (point lookup)",
                       pred->column.c_str());
    }
    if (HasTable(facts, "dbobjects")) {
      return "browses schema metadata (DBObjects)";
    }
    return StrFormat("fetches rows of %s where %s equals a constant",
                     MainTable(facts).c_str(), pred->column.c_str());
  }

  // Joins of base tables (before the range heuristics: a filtered join
  // is still best summarized as a join).
  if (facts.tables.size() >= 2) {
    return StrFormat("joins %s", Join(facts.tables, " with ").c_str());
  }

  // Sliding / range scans: all predicates are range-shaped.
  bool all_ranges = !facts.predicates.empty();
  for (const auto& p : facts.predicates) {
    if (p.op == sql::PredicateOp::kEq || p.op == sql::PredicateOp::kIn ||
        p.op == sql::PredicateOp::kLike || p.op == sql::PredicateOp::kIsNull ||
        p.op == sql::PredicateOp::kIsNotNull || p.op == sql::PredicateOp::kOther) {
      all_ranges = false;
      break;
    }
  }
  if (all_ranges && facts.where_conjunctive) {
    bool one_column = true;
    for (const auto& p : facts.predicates) {
      one_column = one_column && p.column == facts.predicates[0].column;
    }
    if (one_column) {
      return StrFormat("scans %s over a %s range (window/slice access)",
                       MainTable(facts).c_str(), facts.predicates[0].column.c_str());
    }
    return StrFormat("scans %s over a multi-column range (region slice)",
                     MainTable(facts).c_str());
  }

  // NULL searches.
  for (const auto& p : facts.predicates) {
    if (p.op == sql::PredicateOp::kIsNull || p.compares_to_null_literal) {
      return StrFormat("searches %s for missing (NULL) %s values",
                       MainTable(facts).c_str(), p.column.c_str());
    }
  }

  if (facts.predicates.empty()) {
    return StrFormat("reads %s without a filter", MainTable(facts).c_str());
  }
  return StrFormat("filters %s by %zu predicates", MainTable(facts).c_str(),
                   facts.predicates.size());
}

}  // namespace sqlog::analysis
