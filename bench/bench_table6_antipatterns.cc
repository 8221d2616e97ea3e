// Table 6: the most popular antipatterns — frequency, type, skeleton
// statements, distinct IPs. Paper: top 3 are DW-Stifles on
// photoprimary.objid (rowc_g/colc_g, rowc_r/colc_r, rowc_i/colc_i) from
// 1-3 IPs; ranks 4-5 are DS-Stifles on the same templates.

#include <algorithm>

#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Table 6 — most popular antipatterns", "paper Table 6");

  log::QueryLog raw = bench::GenerateStudyLog();
  core::PipelineResult result = bench::RunStudyPipeline(raw);

  auto distinct = result.antipatterns.distinct;
  // Keep solvable Stifles (what Table 6 lists) ranked by covered queries.
  const core::DetectorSet& set = *result.antipatterns.detectors;
  distinct.erase(std::remove_if(distinct.begin(), distinct.end(),
                                [&](const core::DistinctAntipattern& d) {
                                  return set.info(d.detector).scan_group != "stifle";
                                }),
                 distinct.end());
  std::sort(distinct.begin(), distinct.end(),
            [](const auto& a, const auto& b) { return a.query_count > b.query_count; });

  std::printf("%-4s %-10s %-9s %-4s %s\n", "#", "queries", "type", "IPs",
              "skeleton statements");
  for (size_t i = 0; i < distinct.size() && i < 10; ++i) {
    const auto& d = distinct[i];
    std::string skeletons;
    for (size_t k = 0; k < d.template_ids.size() && k < 2; ++k) {
      const auto& tmpl = result.templates.Get(d.template_ids[k]).tmpl;
      if (k > 0) skeletons += "  ||  ";
      skeletons += tmpl.ssc + " " + tmpl.sfc + " " + tmpl.swc;
    }
    std::printf("%-4zu %-10s %-9s %-4zu %.110s\n", i + 1,
                bench::Thousands(d.query_count).c_str(),
                result.antipatterns.detectors->info(d.detector).display_name.c_str(),
                d.user_popularity(), skeletons.c_str());
  }

  std::printf("\nShape check vs paper Table 6: the top antipatterns are DW-Stifles\n"
              "filtering photoprimary by the internal objid key, issued by 1-3 IPs;\n"
              "DS-Stifles over the same centroid columns follow.\n");
  return 0;
}
