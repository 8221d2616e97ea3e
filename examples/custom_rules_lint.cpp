// Extension-point demo (paper Sec. 5.4): register custom antipattern
// rules — two detect-only lint rules and the solvable SNC rule — and run
// them over a synthetic log, reporting per-rule hit statistics like a
// SQL linter would.

#include <cstdio>
#include <cstdlib>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "core/rules.h"
#include "log/generator.h"

int main(int argc, char** argv) {
  size_t target = 20000;
  if (argc > 1) target = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  sqlog::log::GeneratorConfig config;
  config.target_statements = target;
  sqlog::log::QueryLog raw = sqlog::log::GenerateLog(config);

  sqlog::core::PipelineOptions options;
  options.mine_patterns = false;  // pure lint run
  options.detector.custom_rules = {
      sqlog::core::MakeSelectStarRule(),
      sqlog::core::MakeMissingWhereRule(),
  };
  // A bespoke rule written inline: flag unbounded ORDER BY (sorts the
  // whole result without TOP — expensive on big tables).
  sqlog::core::CustomRule unbounded_sort;
  unbounded_sort.name = "unbounded-order-by";
  unbounded_sort.detect = [](const sqlog::core::ParsedQuery& query) {
    const auto& stmt = *query.facts.ast;
    return !stmt.order_by.empty() && stmt.top_count < 0;
  };
  options.detector.custom_rules.push_back(std::move(unbounded_sort));

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  sqlog::core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  sqlog::core::PipelineResult& result = *run;

  std::printf("Linted %zu statements (%zu parsed SELECTs)\n\n", raw.size(),
              result.parsed.queries.size());
  std::printf("%-22s %10s %12s %8s\n", "rule", "hits", "distinct", "users");

  // Each rule runs as the adapter detector "custom-rule-<index>".
  const sqlog::core::AntipatternReport& report = result.antipatterns;
  for (size_t r = 0; r < options.detector.custom_rules.size(); ++r) {
    const std::string id = "custom-rule-" + std::to_string(r);
    size_t users = 0;
    for (const auto& d : report.distinct) {
      if (report.detectors->info(d.detector).id == id) users += d.user_popularity();
    }
    std::printf("%-22s %10llu %12llu %8zu\n",
                options.detector.custom_rules[r].name.c_str(),
                (unsigned long long)report.QueriesOf(id),
                (unsigned long long)report.DistinctOf(id), users);
  }

  std::printf("\nBuilt-in detectors still ran alongside: %llu Stifle instances, "
              "%llu CTH candidates, %llu SNC.\n",
              (unsigned long long)(result.antipatterns.InstancesOf("dw-stifle") +
                                   result.antipatterns.InstancesOf("ds-stifle") +
                                   result.antipatterns.InstancesOf("df-stifle")),
              (unsigned long long)result.antipatterns.InstancesOf("cth"),
              (unsigned long long)result.antipatterns.InstancesOf("snc"));
  return 0;
}
