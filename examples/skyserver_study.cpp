// The SkyServer case study in miniature: generate a synthetic
// SkyServer-style log, run the full pipeline, and print Table 5/6/7
// style summaries (see bench/ for the exact per-table harnesses).

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  size_t target = 100000;
  if (argc > 1) target = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  std::printf("Generating a synthetic SkyServer-style log of ~%zu statements...\n", target);
  sqlog::log::GeneratorConfig config;
  config.target_statements = target;
  sqlog::Timer gen_timer;
  sqlog::log::QueryLog raw = sqlog::log::GenerateLog(config);
  std::printf("  generated %zu records from %zu users in %.2fs\n\n", raw.size(),
              raw.DistinctUserCount(), gen_timer.ElapsedSeconds());

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  sqlog::core::PipelineOptions options;
  options.num_threads = 0;  // the case study runs at full width
  sqlog::core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);

  sqlog::Timer run_timer;
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  sqlog::core::PipelineResult& result = *run;
  std::printf("Pipeline finished in %.2fs\n\n%s\n", run_timer.ElapsedSeconds(),
              result.stats.ToTable().c_str());

  std::printf("Top 10 patterns by frequency (after mining; A = antipattern):\n");
  size_t shown = 0;
  for (size_t i = 0; i < result.patterns.size() && shown < 10; ++i, ++shown) {
    const auto& pattern = result.patterns[i];
    const auto& tmpl = result.templates.Get(pattern.template_ids[0]).facts->tmpl;
    std::printf("  %2zu. freq=%9s users=%4zu %s  %.90s\n", shown + 1,
                sqlog::WithThousands((long long)pattern.frequency).c_str(),
                pattern.user_popularity(),
                result.PatternIsAntipattern(i) ? "[A]" : "   ", tmpl.ssc.c_str());
  }

  std::printf("\nTop 5 distinct antipatterns by covered queries:\n");
  auto distinct = result.antipatterns.distinct;
  std::sort(distinct.begin(), distinct.end(),
            [](const auto& a, const auto& b) { return a.query_count > b.query_count; });
  for (size_t i = 0; i < distinct.size() && i < 5; ++i) {
    const auto& d = distinct[i];
    const auto& tmpl = result.templates.Get(d.template_ids[0]).facts->tmpl;
    std::printf("  %2zu. %-9s queries=%9s users=%3zu  %.80s\n", i + 1,
                result.antipatterns.detectors->info(d.detector).display_name.c_str(),
                sqlog::WithThousands((long long)d.query_count).c_str(),
                d.user_popularity(), tmpl.ssc.c_str());
  }

  std::printf("\nSWS coverage at (freq >= %.2f%%, users <= %zu): %.1f%% of parsed log\n",
              100.0 * options.sws.frequency_fraction, options.sws.max_user_popularity,
              100.0 * result.sws.coverage);
  return 0;
}
