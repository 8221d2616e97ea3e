// Perf smoke test (ctest label "perf"): a fixed-seed generator log
// pushed through the full pipeline with the parse cache on and off must
// produce byte-identical outputs, while the cached run demonstrably
// parses fewer statements (the whole point of the parse cache).
// This pins the perf mechanism without timing anything — wall-clock
// assertions are flaky under CI load; the full-parse counter is not.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "catalog/schema.h"
#include "core/parse_cache.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "log/log_io.h"

namespace sqlog {
namespace {

log::QueryLog FixedLog() {
  log::GeneratorConfig config;
  config.seed = 63099001;
  config.target_statements = 20000;
  config.human_users = 60;
  return log::GenerateLog(config);
}

core::PipelineResult RunWithCache(const log::QueryLog& raw, const catalog::Schema& schema,
                                  bool parse_cache) {
  core::PipelineOptions options;
  options.num_threads = 4;
  options.parse_cache = parse_cache;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto result = pipeline.Run(raw);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

void ExpectSameLog(const log::QueryLog& want, const log::QueryLog& got,
                   const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& a = want.records()[i];
    const auto& b = got.records()[i];
    ASSERT_EQ(a.statement, b.statement) << label << " record " << i;
    ASSERT_EQ(a.user, b.user) << label << " record " << i;
    ASSERT_EQ(a.timestamp_ms, b.timestamp_ms) << label << " record " << i;
  }
}

TEST(PerfSmokeTest, CachedPipelineMatchesUncachedWithStrictlyFewerFullParses) {
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  core::PipelineResult uncached = RunWithCache(raw, schema, /*parse_cache=*/false);
  core::PipelineResult cached = RunWithCache(raw, schema, /*parse_cache=*/true);

  // Identical observable output...
  EXPECT_EQ(cached.stats.ToTable(), uncached.stats.ToTable());
  ExpectSameLog(uncached.clean_log, cached.clean_log, "clean");
  ExpectSameLog(uncached.removal_log, cached.removal_log, "removal");

  // ...for strictly less parsing work. The uncached run parses every
  // SELECT; the cached run only lexes + looks up the repeats.
  const core::ParseStats& with = cached.parsed.parse_stats;
  const core::ParseStats& without = uncached.parsed.parse_stats;
  EXPECT_LT(with.full_parses, without.full_parses);
  EXPECT_GT(with.parses_avoided(), 0u);
  EXPECT_EQ(without.parses_avoided(), 0u);
  // Template-heavy workload: most statements must ride the cache.
  EXPECT_GT(with.parses_avoided(), cached.parsed.queries.size() / 2);
  EXPECT_GT(with.templates_cached, 0u);
}

TEST(PerfSmokeTest, SqbIngestDoesZeroFullParses) {
  // The binary format's whole point: the template dictionary ships
  // validated parse recipes, so re-ingesting a `.sqb` file seeds the
  // cache up front and never runs the parser — full_parses stays at
  // exactly zero. Diagnostics are capped at 0 so the handful of
  // syntax-error statements short-circuit on their (failed) recipes too.
  const log::QueryLog raw = FixedLog();
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  const std::string sqb_path = ::testing::TempDir() + "/perf_smoke.sqb";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, sqb_path, log::LogFormat::kSqb,
                                    core::BuildStatementRecipe)
                  .ok());

  core::PipelineOptions options;
  options.max_parse_diagnostics = 0;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  const std::string clean_path = ::testing::TempDir() + "/perf_smoke_clean.csv";
  const std::string removal_path = ::testing::TempDir() + "/perf_smoke_removal.csv";
  auto run = pipeline.RunStreaming(sqb_path, clean_path, removal_path);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const core::ParseStats& stats = run->parsed.parse_stats;
  EXPECT_EQ(stats.full_parses, 0u);
  EXPECT_GT(stats.parses_avoided(), 0u);
  // And the run actually processed the workload, not a degenerate log.
  EXPECT_GT(run->parsed.queries.size(), 10000u);

  std::remove(sqb_path.c_str());
  std::remove(clean_path.c_str());
  std::remove(removal_path.c_str());
}

}  // namespace
}  // namespace sqlog
