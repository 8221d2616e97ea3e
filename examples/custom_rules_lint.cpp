// Extension-point demo (paper Sec. 5.4): custom antipattern rules are
// core::Detector subclasses registered with the global registry — the
// library's one detection API. Two detect-only lint detectors are
// registered here, selected by id after the paper's default set together
// with the built-in select-star detector, and run over a synthetic log;
// the per-detector hit statistics are reported like a SQL linter would.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "core/detector.h"
#include "core/pipeline.h"
#include "log/generator.h"

namespace {

namespace core = sqlog::core;

/// True when the canonical SELECT clause `sc` limits its rows with TOP.
bool HasTop(const std::string& sc) {
  return sc.rfind("select top ", 0) == 0 || sc.rfind("select distinct top ", 0) == 0;
}

/// The items of the canonical SELECT clause `sc`, split at its top-level
/// commas (the printer separates items with ", ").
std::vector<std::string_view> SelectItems(const std::string& sc) {
  std::string_view rest(sc);
  rest.remove_prefix(rest.find(' ') + 1);  // "select "
  if (rest.rfind("distinct ", 0) == 0) rest.remove_prefix(9);
  if (rest.rfind("top ", 0) == 0) rest.remove_prefix(rest.find(' ', 4) + 1);
  std::vector<std::string_view> items;
  int depth = 0;
  bool in_string = false;
  size_t start = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == '\'') in_string = !in_string;
    if (in_string) continue;
    if (rest[i] == '(') ++depth;
    if (rest[i] == ')') --depth;
    if (rest[i] == ',' && depth == 0) {
      items.push_back(rest.substr(start, i - start));
      start = i + 2;
    }
  }
  items.push_back(rest.substr(start));
  return items;
}

/// True when the select item `item` is a function call, optionally
/// aliased (`count(*)`, `max(r) as m`): a name, then a parenthesis whose
/// match ends the call.
bool IsFunctionCall(std::string_view item) {
  const size_t open = item.find('(');
  if (open == std::string_view::npos || item.substr(0, open).find(' ') != std::string_view::npos) {
    return false;
  }
  const char first = item[0];  // canonical names are lower-cased
  if (!(first >= 'a' && first <= 'z') && first != '_' && first != '"') {
    return false;  // `-f(x)`, `(a)`: an operator, not a call
  }
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < item.size(); ++i) {
    if (item[i] == '\'') in_string = !in_string;
    if (in_string) continue;
    if (item[i] == '(') ++depth;
    if (item[i] == ')' && --depth == 0) {
      std::string_view after = item.substr(i + 1);
      return after.empty() || after.rfind(" as ", 0) == 0;
    }
  }
  return false;
}

/// Unbounded full-table reads: no WHERE, no TOP, no aggregation and no
/// table function, over some base table. The machine-download smell an
/// operator may want to follow up on.
class MissingWhereDetector final : public core::Detector {
 public:
  MissingWhereDetector() {
    info_.id = "missing-where";
    info_.display_name = "missing-where";
    info_.description = "full-table read without WHERE, TOP or aggregation";
  }
  const core::DetectorInfo& info() const override { return info_; }
  bool MatchQuery(const core::ParsedQuery& query, const core::DetectorContext&,
                  core::AntipatternInstance*) const override {
    const sqlog::sql::QueryFacts& facts = query.facts;
    if (!facts.wc.empty() || HasTop(facts.sc)) return false;
    if (facts.shared->tmpl.tail.rfind("group by ", 0) == 0) return false;  // grouped output
    const std::vector<std::string_view> items = SelectItems(facts.sc);
    if (std::any_of(items.begin(), items.end(), IsFunctionCall)) {
      return false;  // an aggregate without GROUP BY returns one row
    }
    if (!facts.shared->table_functions.empty()) return false;  // spatial searches bound themselves
    return !facts.shared->tables.empty();
  }

 private:
  core::DetectorInfo info_;
};

/// Unbounded ORDER BY: sorts the whole result without TOP, which is
/// expensive on big tables.
class UnboundedOrderByDetector final : public core::Detector {
 public:
  UnboundedOrderByDetector() {
    info_.id = "unbounded-order-by";
    info_.display_name = "unbounded-order-by";
    info_.description = "ORDER BY without TOP sorts the whole result";
  }
  const core::DetectorInfo& info() const override { return info_; }
  bool MatchQuery(const core::ParsedQuery& query, const core::DetectorContext&,
                  core::AntipatternInstance*) const override {
    const std::string& tail = query.facts.shared->tmpl.tail;
    const bool ordered =
        tail.rfind("order by ", 0) == 0 || tail.find(" order by ") != std::string::npos;
    return ordered && !HasTop(query.facts.sc);
  }

 private:
  core::DetectorInfo info_;
};

}  // namespace

int main(int argc, char** argv) {
  size_t target = 20000;
  if (argc > 1) target = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  sqlog::log::GeneratorConfig config;
  config.target_statements = target;
  sqlog::log::QueryLog raw = sqlog::log::GenerateLog(config);

  core::DetectorRegistry& registry = core::DetectorRegistry::Global();
  sqlog::Status status = registry.Register(std::make_shared<MissingWhereDetector>());
  if (status.ok()) status = registry.Register(std::make_shared<UnboundedOrderByDetector>());
  if (!status.ok()) {
    std::fprintf(stderr, "registration failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // The built-in select-star detector is the third lint rule.
  const std::vector<std::string> lint_ids = {"select-star", "missing-where",
                                             "unbounded-order-by"};
  core::PipelineOptions options;
  options.mine_patterns = false;  // pure lint run
  options.detector.detector_ids = core::DefaultDetectorIds();
  options.detector.detector_ids.insert(options.detector.detector_ids.end(), lint_ids.begin(),
                                       lint_ids.end());

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult& result = *run;

  std::printf("Linted %zu statements (%zu parsed SELECTs)\n\n", raw.size(),
              result.parsed.queries.size());
  std::printf("%-22s %10s %12s %8s\n", "rule", "hits", "distinct", "users");

  const core::AntipatternReport& report = result.antipatterns;
  for (const std::string& id : lint_ids) {
    size_t users = 0;
    for (const auto& d : report.distinct) {
      if (report.detectors->info(d.detector).id == id) users += d.user_popularity();
    }
    std::printf("%-22s %10llu %12llu %8zu\n", id.c_str(),
                (unsigned long long)report.QueriesOf(id),
                (unsigned long long)report.DistinctOf(id), users);
  }

  std::printf("\nBuilt-in detectors still ran alongside: %llu Stifle instances, "
              "%llu CTH candidates, %llu SNC.\n",
              (unsigned long long)(report.InstancesOf("dw-stifle") +
                                   report.InstancesOf("ds-stifle") +
                                   report.InstancesOf("df-stifle")),
              (unsigned long long)report.InstancesOf("cth"),
              (unsigned long long)report.InstancesOf("snc"));
  return 0;
}
