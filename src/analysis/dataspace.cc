#include "analysis/dataspace.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "util/string_util.h"

namespace sqlog::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Clamp used when measuring lengths of half-bounded intervals so that
/// Jaccard stays meaningful; wide enough for objids.
constexpr double kDomain = 1e19;

double ClampLo(double v) { return v == -kInf ? -kDomain : v; }
double ClampHi(double v) { return v == kInf ? kDomain : v; }

bool LooksNumeric(const std::string& text) {
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

double NumberOf(const std::string& text) { return std::strtod(text.c_str(), nullptr); }

/// Canonical string constants arrive as "'text'" (printer form); strip
/// the quotes and undo the doubled-quote escaping.
std::string StripQuotes(const std::string& text) {
  if (text.size() < 2 || text.front() != '\'' || text.back() != '\'') return text;
  std::string inner = text.substr(1, text.size() - 2);
  std::string out;
  for (size_t i = 0; i < inner.size(); ++i) {
    out.push_back(inner[i]);
    if (inner[i] == '\'' && i + 1 < inner.size() && inner[i + 1] == '\'') ++i;
  }
  return out;
}

/// Intersects `interval` into the map entry for `column`.
void Constrain(DataSpace& space, const std::string& column, const Interval& interval) {
  auto [it, inserted] = space.numeric_ranges.try_emplace(column, Interval::All());
  Interval& current = it->second;
  (void)inserted;
  current.lo = std::max(current.lo, interval.lo);
  current.hi = std::min(current.hi, interval.hi);
}

}  // namespace

Interval Interval::All() { return Interval{-kInf, kInf}; }

std::string DataSpace::SignatureKey() const {
  std::string key = table_key;
  key.push_back('|');
  for (const auto& [col, interval] : numeric_ranges) {
    key += col;
    key += StrFormat("[%.17g,%.17g]", interval.lo, interval.hi);
  }
  key.push_back('|');
  for (const auto& [col, value] : string_points) {
    key += col;
    key.push_back('=');
    key += value;
    key.push_back(';');
  }
  return key;
}

DataSpace ExtractDataSpace(const sql::QueryFacts& facts) {
  DataSpace space;

  const sql::TemplateFacts& shared = *facts.shared;
  std::vector<std::string> names = shared.tables;
  for (const auto& fn : shared.table_functions) names.push_back(fn);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  space.table_key = Join(names, "+");

  for (size_t i = 0; i < shared.predicates.size(); ++i) {
    const sql::Predicate& pred = shared.predicates[i];
    if (pred.column.empty() || !pred.constant_comparison) continue;
    const std::span<const std::string> values = facts.values(i);
    // A `.sqb` recipe may pair a constant comparison with fewer values.
    if (values.size() < (pred.op == sql::PredicateOp::kBetween ? 2u : 1u)) continue;
    switch (pred.op) {
      case sql::PredicateOp::kEq: {
        const std::string& value = values[0];
        if (LooksNumeric(value)) {
          Constrain(space, pred.column, Interval::Point(NumberOf(value)));
        } else {
          space.string_points[pred.column] = ToLower(StripQuotes(value));
        }
        break;
      }
      case sql::PredicateOp::kLess:
      case sql::PredicateOp::kLessEq: {
        const std::string& value = values[0];
        if (LooksNumeric(value)) {
          Constrain(space, pred.column, Interval{-kInf, NumberOf(value)});
        }
        break;
      }
      case sql::PredicateOp::kGreater:
      case sql::PredicateOp::kGreaterEq: {
        const std::string& value = values[0];
        if (LooksNumeric(value)) {
          Constrain(space, pred.column, Interval{NumberOf(value), kInf});
        }
        break;
      }
      case sql::PredicateOp::kBetween: {
        const std::string& lo = values[0];
        const std::string& hi = values[1];
        if (LooksNumeric(lo) && LooksNumeric(hi)) {
          Constrain(space, pred.column, Interval{NumberOf(lo), NumberOf(hi)});
        }
        break;
      }
      case sql::PredicateOp::kIn: {
        // Approximate an IN list by its numeric hull.
        double lo = kInf;
        double hi = -kInf;
        bool numeric = !values.empty();
        for (const auto& value : values) {
          if (!LooksNumeric(value)) {
            numeric = false;
            break;
          }
          lo = std::min(lo, NumberOf(value));
          hi = std::max(hi, NumberOf(value));
        }
        if (numeric) Constrain(space, pred.column, Interval{lo, hi});
        break;
      }
      default:
        break;  // LIKE / IS NULL / opaque predicates do not bound a region
    }
  }
  return space;
}

namespace {

double IntervalJaccard(const Interval& a, const Interval& b) {
  double ilo = std::max(a.lo, b.lo);
  double ihi = std::min(a.hi, b.hi);
  if (ilo > ihi) return 0.0;
  if (a.is_point() && b.is_point()) return 1.0;  // equal points (ilo<=ihi held)
  double ulo = ClampLo(std::min(a.lo, b.lo));
  double uhi = ClampHi(std::max(a.hi, b.hi));
  double inter = ClampHi(ihi) - ClampLo(ilo);
  double uni = uhi - ulo;
  if (uni <= 0.0) return 1.0;  // both degenerate and equal
  return inter / uni;
}

}  // namespace

double Overlap(const DataSpace& a, const DataSpace& b) {
  if (a.table_key != b.table_key) return 0.0;

  double factor = 1.0;

  // Numeric columns constrained on either side.
  auto ita = a.numeric_ranges.begin();
  auto itb = b.numeric_ranges.begin();
  while (ita != a.numeric_ranges.end() || itb != b.numeric_ranges.end()) {
    if (itb == b.numeric_ranges.end() ||
        (ita != a.numeric_ranges.end() && ita->first < itb->first)) {
      return 0.0;  // constrained in a only: disjoint slice vs whole
    }
    if (ita == a.numeric_ranges.end() || itb->first < ita->first) {
      return 0.0;  // constrained in b only
    }
    factor *= IntervalJaccard(ita->second, itb->second);
    if (factor == 0.0) return 0.0;
    ++ita;
    ++itb;
  }

  // String equality points.
  auto sa = a.string_points.begin();
  auto sb = b.string_points.begin();
  while (sa != a.string_points.end() || sb != b.string_points.end()) {
    if (sb == b.string_points.end() ||
        (sa != a.string_points.end() && sa->first < sb->first)) {
      return 0.0;
    }
    if (sa == a.string_points.end() || sb->first < sa->first) {
      return 0.0;
    }
    if (sa->second != sb->second) return 0.0;
    ++sa;
    ++sb;
  }
  return factor;
}

}  // namespace sqlog::analysis
