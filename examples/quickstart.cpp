// Quickstart: run the cleaning pipeline over the paper's running example
// (Table 1) and show what each stage produces.

#include <cstdio>
#include <utility>

#include "sqlog.h"

namespace {

sqlog::log::LogRecord Make(uint64_t seq, int64_t t_ms, const char* user, const char* sql,
                           int64_t rows) {
  sqlog::log::LogRecord record;
  record.seq = seq;
  record.timestamp_ms = t_ms;
  record.user = user;
  record.statement = sql;
  record.row_count = rows;
  return record;
}

}  // namespace

int main() {
  // The paper's Table 1: one user drives a Circuitous Treasure Hunt whose
  // middle queries also form a DW-ish / DS-ish Stifle.
  sqlog::log::QueryLog raw;
  raw.Append(Make(0, 1000, "10.0.0.7",
                  "SELECT E.empId FROM Employees E WHERE E.department = 'sales'", 1));
  raw.Append(Make(1, 4000, "10.0.0.7",
                  "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12", 1));
  raw.Append(Make(2, 6500, "10.0.0.7",
                  "SELECT E.birthday, E.phone FROM Employees E WHERE E.id = 12", 1));
  raw.Append(Make(3, 9000, "10.0.0.7",
                  "SELECT count(orders) FROM Orders O WHERE O.empId = 12", 1));
  // A web-form reload produces an instant duplicate.
  raw.Append(Make(4, 9400, "10.0.0.7",
                  "SELECT count(orders) FROM Orders O WHERE O.empId = 12", 1));
  // A second user issues the Stifle of Example 9.
  raw.Append(Make(5, 2000, "10.0.0.9",
                  "SELECT name FROM Employee WHERE empId = 8", 1));
  raw.Append(Make(6, 3500, "10.0.0.9",
                  "SELECT name FROM Employee WHERE empId = 1", 1));
  // And the SNC mistake from Sec. 5.4.
  raw.Append(Make(7, 20000, "10.0.0.9",
                  "SELECT * FROM Bugs WHERE assigned_to = NULL", 0));

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  sqlog::core::PipelineOptions options;
  options.miner.min_support = 1;  // the running example is tiny
  options.detector.cth_min_support = 1;

  sqlog::core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);  // enables Def. 11's key check
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  sqlog::core::PipelineResult& result = *run;

  std::printf("== Statistics ==\n%s\n", result.stats.ToTable().c_str());

  std::printf("== Query templates ==\n");
  for (const auto& info : result.templates.templates()) {
    std::printf("  [t%llu] freq=%llu users=%zu  %s %s %s\n",
                (unsigned long long)info.id, (unsigned long long)info.frequency,
                info.user_popularity(), info.facts->tmpl.ssc.c_str(), info.facts->tmpl.sfc.c_str(),
                info.facts->tmpl.swc.c_str());
  }

  std::printf("\n== Antipattern instances ==\n");
  for (const auto& instance : result.antipatterns.instances) {
    std::printf("  %s over %zu queries:\n",
                result.antipatterns.detectors->info(instance.detector).display_name.c_str(),
                instance.query_indices.size());
    for (size_t idx : instance.query_indices) {
      size_t record = result.parsed.queries[idx].record_index;
      std::printf("    %s\n", result.pre_clean.records()[record].statement.c_str());
    }
  }

  std::printf("\n== Clean log ==\n");
  for (const auto& record : result.clean_log.records()) {
    std::printf("  [%s] %s\n", record.user.c_str(), record.statement.c_str());
  }
  return 0;
}
